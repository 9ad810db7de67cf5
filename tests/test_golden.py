"""Byte-identity gate for the CLI.

Each case is an argv, the exit code it must return and the sha256 of the
stdout it must print.  The digests were recorded from the CLI before any
refactor of the numerical code, so a refactor that changes a single output
byte or exit code fails here.  A deliberate output change must re-record
the affected digests and say why in CHANGES.md.

The ``estimate-*`` digests were re-recorded when the bootstrap switched
to multinomial histogram draws, which changes ``std_err`` but not
``c_hat``; ``C_HAT`` pins the ``c_hat`` bytes recorded before that switch.
The ``limit-pmf-json`` and ``verify`` digests were re-recorded when the
limit law switched to a Cauchy tail bound, which changes ``tail_bound``
and the ``cf-pmf-duality`` worst value; ``LIMIT_P`` pins the ``p`` and
``admissible`` bytes recorded before that switch.

``verify-default`` is the argv of the benchmark's ``verify`` job (its
defaults, 50 trials); its digest was recorded before the literal Ursell
recursion was vectorized over argument patterns.

The four ``finite-pmf-*`` digests and both ``verify`` digests were
re-recorded when the finite-N recurrence switched from compensated adds
to one plain fixed-order product per step, after its entries were checked
against the closed-form factorial-moment oracle in test_finite.py.  Only
the finite-pmf lines of ``verify`` moved, and they still pass.

Both ``verify`` digests were re-recorded again when the Ursell tables
moved from the set-partition sum to the exact exponential formula, whose
entries are correctly rounded.  Only the worst values of the lines built
on those tables moved (``g-recursive-vs-partition``, ``p-g-roundtrip``,
``oracle-vs-finite-pmf``), each within its unchanged tolerance.

The ``oracle-pmf`` digest and both ``verify`` digests were re-recorded
when exchangeable joints switched from per-pattern weights to class
masses, each the exact mixture mass rounded once.  ``ORACLE_P`` pins the
``oracle-pmf`` rows, and ``test_oracle_pmf_rows_are_exactly_rounded``
checks them against exact fractions.  In ``verify`` only the lines built
on marginals of mixture joints moved (``g-recursive-vs-partition``,
``g-permutation-symmetry``, ``g-flip-antisymmetry``,
``oracle-vs-finite-pmf``), each within its unchanged tolerance.

Both ``verify`` digests were re-recorded when every exchangeable table,
marginals and correlation tables alike, switched to class totals: the
marginals are now correctly rounded hypergeometric sums, and only the
literal recursion divides a total into per-pattern values.  Only the
lines built on those tables moved (``g-permutation-symmetry``,
``g-flip-antisymmetry``, ``p-g-roundtrip``), each within its unchanged
tolerance.

The ``cf-csv`` and ``verify`` digests were re-recorded when the
characteristic function moved from numpy to plain Python complex
arithmetic.  numpy's complex multiply fuses multiply-adds where the CPU
offers them, and CPython's x86-64 build does not, so the old digests held
only on CPUs with those instructions; the new ones are what numpy printed
with them switched off (``NPY_DISABLE_CPU_FEATURES``), and
``test_cf_bytes_do_not_depend_on_numpy_cpu_features`` checks that.  In
``verify`` only the ``cf-pmf-duality`` worst value moved, within its
unchanged tolerance; grids of l_max = 1, such as ``cf-json``, did not move.

Both ``verify`` digests were re-recorded when the finite law's
``error_estimate`` switched from an absolute-value shadow series to
eps * sum |p_N(s)| of the computed entries.  Only the worst ratios of the
two lines whose budgets use it (``finite-pmf-normalization``,
``finite-pmf-mean-identity``) moved, and they still pass; ``VERIFY_REST``
pins every other line, recorded before that switch.

``sample-blocks`` draws 200,001 counts: three of the sampler's full
65,536-uniform blocks and part of a fourth.  Its digest was recorded before
the sampler drew in blocks, when it made one ``Generator.random`` call.
The other ``sample-*`` cases draw 2000 and 500 counts, inside one block,
so they cannot show that the blocked stream is byte-identical.

``{plain}``, ``{csv}`` and ``{bare_csv}`` in an argv stand for counts files
the test writes: plain lines, CSV with a ``sample_index,count`` header,
and CSV without one, all holding the same 2000 counts.  ``{wide}`` is a
plain file of 2000 counts up to 300, above the one-byte range.  These
files fit in one of the blocks in which ``estimate`` reads its input, so
they cannot show that the blocked read is byte-identical.
``{blocks}`` is a CSV file with a ``sample_index,count`` header and
200,001 rows, so the header skip and the count column span many blocks;
the ``estimate-blocks`` digest was recorded before ``estimate`` read in
blocks, when np.loadtxt parsed the whole file in one call.
"""

import hashlib
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from corrcount.cli import main

from conftest import subprocess_env

CASES = {
    "finite-pmf-csv": (
        ["finite-pmf", "--n", "40", "--c", "1.0,0.3"],
        0, "dde249823b76d92acf86710dfe5b2ad6ccef2b7933e93b45a52e2fc2b00b6413",
    ),
    "finite-pmf-json": (
        ["finite-pmf", "--n", "300", "--c", "2.0,0.5,-0.1", "--format", "json"],
        0, "cf3157671d30ca1c92524bd84e41377608483d21c75551df6ec69b9560d38665",
    ),
    "finite-pmf-signed": (
        ["finite-pmf", "--n", "30", "--c", "1.0,40.0"],
        2, "fa5037441f38a351567fa4dff89c05ad7a6ebc887a37ce5acf7c765f82f82b65",
    ),
    "limit-pmf-csv": (
        ["limit-pmf", "--c", "2.0,0.5"],
        0, "2a8721b0babe53a758f8787af17c51adfea727172a5a221dad23be0dce450b3b",
    ),
    "limit-pmf-json": (
        ["limit-pmf", "--c", "3.0,1.0,0.2", "--format", "json"],
        0, "c3517623c3075783a58361b24bcc45d6c53408fe18e0af30068071a9b365c0a0",
    ),
    "cf-csv": (
        ["cf", "--c", "2.0,0.5", "--u", "0:6.2832:16"],
        0, "40ed1589b7ef2b62c00adcb3895691cc53af4c68cc6002de1d80f2b9a7898f93",
    ),
    "cf-json": (
        ["cf", "--c", "1.0,0.3", "--u", "0.5:2:4", "--format", "json"],
        0, "dc0d11d92f1c0ef67a4a0c4e944fe48bc3fff3de083c90dfb9387fe259c4437d",
    ),
    "oracle-pmf": (
        ["oracle-pmf", "--n", "8", "--mixture", "0.2:0.5,0.8:0.5"],
        0, "5c3b26d6dd3c50aafa343f23afde3ea5601b0a4eff77dc77a073924fb26123b8",
    ),
    "sample-limit": (
        ["sample", "--c", "2.0,0.5", "--count", "2000", "--seed", "42"],
        0, "ec453ec5f19978137bcfa59e8143cf84a22bd7a41fc9b06120321d86e26f2b04",
    ),
    "sample-finite": (
        ["sample", "--n", "50", "--c", "1.0,0.3", "--count", "500", "--seed", "3"],
        0, "1ee9c8f6d1f7a8226481da0cb8ad84e493d8aa0883fa0db4e9cc317c714b55d6",
    ),
    "sample-blocks": (
        ["sample", "--c", "2.0,0.5", "--count", "200001", "--seed", "42"],
        0, "a25205126ce27943eeeb97d44b61c2cebc2d412f746bd1672e96041b96fdea00",
    ),
    "estimate-plain": (
        ["estimate", "--input", "{plain}", "--lmax", "3", "--bootstrap", "50", "--seed", "7"],
        0, "9fa62762b7eb65440fddb1af2139d25cb443b1d1e032676ce9f30099ff979f50",
    ),
    "estimate-csv": (
        ["estimate", "--input", "{csv}", "--lmax", "2", "--bootstrap", "30", "--seed", "1"],
        0, "00932d09fe9c2038dbb88ff6e78571ffbab4089dedca97b0b347f3480f9f5293",
    ),
    "estimate-bare-csv": (
        ["estimate", "--input", "{bare_csv}", "--lmax", "2", "--bootstrap", "30", "--seed", "1"],
        0, "00932d09fe9c2038dbb88ff6e78571ffbab4089dedca97b0b347f3480f9f5293",
    ),
    "finite-pmf-underflow": (
        ["finite-pmf", "--n", "2000", "--c", "2.0,0.5,0.1"],
        0, "f199d936d1aa66de7ae4053fe644d8977a8a49c2d0b107abe8ace85a77c639d2",
    ),
    "estimate-blocks": (
        ["estimate", "--input", "{blocks}", "--lmax", "3", "--bootstrap", "50", "--seed", "7"],
        0, "4ff1c9f96175df96af394f4e6cba7cda8c0c47f32af05c81c9a654fdba642dde",
    ),
    "estimate-wide": (
        ["estimate", "--input", "{wide}", "--lmax", "2", "--bootstrap", "40", "--seed", "5"],
        0, "3f77fbfc4a36a8d7dfea15caf1db7668ef63403a21ad78bc62129c96005e09ba",
    ),
    "verify": (
        ["verify", "--trials", "20"],
        0, "c45b39b250698e09e8d100f752b9a25f7e5513ebc39e475b66dee13d7d55357d",
    ),
    "verify-default": (
        ["verify"],
        0, "e2f4b41dbd4ad441ad394a2c08d442caf95a98289b8fe1230d4ac58aa98f32d3",
    ),
}

# Leading bytes of each estimate stdout, recorded before the bootstrap
# switched to multinomial draws.
C_HAT = {
    "estimate-plain": '{"c_hat": [2.998, 1.0019959999999983, -11.135988015999994], ',
    "estimate-csv": '{"c_hat": [2.998, 1.0019959999999983], ',
    "estimate-bare-csv": '{"c_hat": [2.998, 1.0019959999999983], ',
    "estimate-wide": '{"c_hat": [149.936, 7398.395903999997], ',
}

# sha256 of the limit-pmf-json stdout up to its "tail_bound" key, recorded
# before the Cauchy tail bound: the admissible flag and every p entry.
LIMIT_P = "71fd2cfb5504203262aa61447309bb5afab10cd072af6292fe360065c13af817"

# sha256 of each verify stdout without the two lines whose budgets use
# the finite law's error_estimate, recorded before its switch.
VERIFY_REST = {
    "verify": "8ced597fd305cd163c6a79575e0b79bb39f364eb341196b8056a13644b133335",
    "verify-default": "77e8e359d1b91c421f4f45392c41557724798a706541b1833e1b0d5bc844faf7",
}
ERROR_ESTIMATE_CHECKS = ("finite-pmf-normalization:", "finite-pmf-mean-identity:")

# The p column of the oracle-pmf stdout: each entry is the exact mixture
# mass sum_atoms w C(8, s) p^s (1-p)^(8-s), rounded once.
ORACLE_P = (
    "0.08388736", "0.16781311999999998", "0.14737408", "0.07798784",
    "0.04587519999999999", "0.07798783999999997", "0.14737408",
    "0.16781312000000004", "0.08388736000000004",
)


@pytest.fixture(scope="module")
def counts_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    counts = [(i * i + 3 * i) % 7 for i in range(2000)]
    files = {
        "plain": "\n".join(map(str, counts)),
        "csv": "\n".join(
            ["sample_index,count"] + [f"{i},{c}" for i, c in enumerate(counts)]
        ),
        "bare_csv": "\n".join(f"{i},{c}" for i, c in enumerate(counts)),
        "wide": "\n".join(str((i * 37) % 301) for i in range(2000)),
        "blocks": "\n".join(
            ["sample_index,count"] + [f"{i},{(i * i + 3 * i) % 11}" for i in range(200001)]
        ),
    }
    paths = {}
    for name, text in files.items():
        path = root / f"{name}.txt"
        path.write_text(text + "\n")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, counts_files, capsys):
    argv, want_code, want_digest = CASES[name]
    code = main([arg.format(**counts_files) for arg in argv])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == (want_code, want_digest)


@pytest.mark.parametrize("name", sorted(C_HAT))
def test_estimate_point_estimate_is_unchanged(name, counts_files, capsys):
    argv, _, _ = CASES[name]
    assert main([arg.format(**counts_files) for arg in argv]) == 0
    assert capsys.readouterr().out.startswith(C_HAT[name])


def test_limit_pmf_entries_are_unchanged(capsys):
    argv, _, _ = CASES["limit-pmf-json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    prefix = out[: out.index(', "tail_bound"')]
    assert hashlib.sha256(prefix.encode("utf-8")).hexdigest() == LIMIT_P


@pytest.mark.parametrize("name", sorted(VERIFY_REST))
def test_verify_lines_off_the_error_estimate_are_unchanged(name, capsys):
    argv, _, _ = CASES[name]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert all(line.startswith("PASS ") for line in lines)
    rest = "".join(line for line in lines if line.split()[1] not in ERROR_ESTIMATE_CHECKS)
    assert hashlib.sha256(rest.encode("utf-8")).hexdigest() == VERIFY_REST[name]


def test_oracle_pmf_rows_are_exactly_rounded(capsys):
    argv, _, _ = CASES["oracle-pmf"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "s,p"
    assert tuple(row.split(",")[1] for row in rows[1:]) == ORACLE_P
    exact = [
        sum(
            Fraction(w) * math.comb(8, s) * Fraction(p) ** s * (1 - Fraction(p)) ** (8 - s)
            for p, w in ((0.2, 0.5), (0.8, 0.5))
        )
        for s in range(9)
    ]
    assert ORACLE_P == tuple(repr(float(q)) for q in exact)


def test_cf_bytes_do_not_depend_on_numpy_cpu_features():
    argv, want_code, want_digest = CASES["cf-csv"]
    env = subprocess_env()
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
    done = subprocess.run(
        [sys.executable, "-m", "corrcount", *argv], capture_output=True, env=env
    )
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert (done.returncode, digest) == (want_code, want_digest)
