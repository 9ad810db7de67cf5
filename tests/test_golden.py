"""Byte-identity gate for the CLI.

Each case is an argv, the exit code it must return and the sha256 of the
stdout it must print.  The digests were recorded from the CLI before any
refactor of the numerical code, so a refactor that changes a single output
byte or exit code fails here.  A deliberate output change must re-record
the affected digests and say why in CHANGES.md.

``{plain}``, ``{csv}`` and ``{bare_csv}`` in an argv stand for counts files
the test writes: plain lines, CSV with a ``sample_index,count`` header,
and CSV without one, all holding the same 2000 counts.
"""

import hashlib

import pytest

from corrcount.cli import main

CASES = {
    "finite-pmf-csv": (
        ["finite-pmf", "--n", "40", "--c", "1.0,0.3"],
        0, "a35add6f1a7497d104f9689e58fd652ab813292710b963148ef98a4d29b8cda3",
    ),
    "finite-pmf-json": (
        ["finite-pmf", "--n", "300", "--c", "2.0,0.5,-0.1", "--format", "json"],
        0, "578dd18711113262d0515f749df3778dafe23d0515b6822f443608f0590a77f1",
    ),
    "finite-pmf-signed": (
        ["finite-pmf", "--n", "30", "--c", "1.0,40.0"],
        2, "89a916c7fea22cdc456db851c52cbcc2e79ab3098647b20a68cf98cb200d6978",
    ),
    "limit-pmf-csv": (
        ["limit-pmf", "--c", "2.0,0.5"],
        0, "2a8721b0babe53a758f8787af17c51adfea727172a5a221dad23be0dce450b3b",
    ),
    "limit-pmf-json": (
        ["limit-pmf", "--c", "3.0,1.0,0.2", "--format", "json"],
        0, "509743592d9232e0ccbe2f6e3316d3225b5f967088cb110ef1e88f34a405ef5e",
    ),
    "cf-csv": (
        ["cf", "--c", "2.0,0.5", "--u", "0:6.2832:16"],
        0, "290a5076464e6475ad6bcfb2d00686d1e1a585be6cbf8f95177a06842d9c5091",
    ),
    "cf-json": (
        ["cf", "--c", "1.0,0.3", "--u", "0.5:2:4", "--format", "json"],
        0, "dc0d11d92f1c0ef67a4a0c4e944fe48bc3fff3de083c90dfb9387fe259c4437d",
    ),
    "oracle-pmf": (
        ["oracle-pmf", "--n", "8", "--mixture", "0.2:0.5,0.8:0.5"],
        0, "fbaee851c3a8c867742dcd3df28bcc6c30e08a97e74919420a3971dfff3814f5",
    ),
    "sample-limit": (
        ["sample", "--c", "2.0,0.5", "--count", "2000", "--seed", "42"],
        0, "ec453ec5f19978137bcfa59e8143cf84a22bd7a41fc9b06120321d86e26f2b04",
    ),
    "sample-finite": (
        ["sample", "--n", "50", "--c", "1.0,0.3", "--count", "500", "--seed", "3"],
        0, "1ee9c8f6d1f7a8226481da0cb8ad84e493d8aa0883fa0db4e9cc317c714b55d6",
    ),
    "estimate-plain": (
        ["estimate", "--input", "{plain}", "--lmax", "3", "--bootstrap", "50", "--seed", "7"],
        0, "d880ce4aee8214c3bdac1419dc6008d36bd79377501842a164815e797ddbceb6",
    ),
    "estimate-csv": (
        ["estimate", "--input", "{csv}", "--lmax", "2", "--bootstrap", "30", "--seed", "1"],
        0, "ea734953443a32fe219bfe72d7cd28c7430738df3e3bae0641047e684966598f",
    ),
    "estimate-bare-csv": (
        ["estimate", "--input", "{bare_csv}", "--lmax", "2", "--bootstrap", "30", "--seed", "1"],
        0, "ea734953443a32fe219bfe72d7cd28c7430738df3e3bae0641047e684966598f",
    ),
    "verify": (
        ["verify", "--trials", "20"],
        0, "9c390e056a716e3ac3d8e79b65f57e4c0c00d71ad356be153ddd92e471c1d858",
    ),
}


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
