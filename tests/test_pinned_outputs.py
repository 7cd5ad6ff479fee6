"""Output bytes pinned across commits.

Every other determinism test compares two runs of the same code, so none of
them notices when a change alters the random draw sequence, the node ids or
the order of a floating-point sum. This test runs ``train`` (three times:
shallow trees, deep trees, and a column holding both -0 and 0), ``compare``
and ``eval`` on fixed inputs, then ``importance``
and ``filter`` on the trained ensembles, and compares the sha256 of their
outputs with constants recorded from an earlier commit. A change that alters
the chain's output on purpose updates the constants below and says so in
CHANGES.md; any other mismatch is a regression. What each command (``synth``
too) prints, and its ``manifest.json`` but for its command line, are pinned the
same way, with the temporary directory written ``<root>``.

These constants pin bytes, not the posterior: a re-record would pin a wrong
kernel as readily as a right one. The net under a re-record is
``tests/test_kernel.py``, the chain's exact transition kernel checked against
the stated posterior; it must pass before any constant here is re-recorded.
"""
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from treebma import save_csv
from treebma.cli import main

TRAIN = ["--seed", "1", "--burn-in", "3000", "--collect", "100", "--thin", "5",
         "--min-leaf", "5", "--s-max", "8"]
# deep trees (about 26 leaves): change moves re-partition many leaves at once
TRAIN_DEEP = ["--seed", "1", "--burn-in", "3000", "--collect", "100", "--thin", "5",
              "--min-leaf", "1", "--s-max", "30"]
COMPARE = ["--seed", "3", "--folds", "3", "--variable", "1", "--burn-in", "600",
           "--collect", "60", "--thin", "2", "--min-leaf", "8", "--s-max", "6"]
EVAL = ["--seed", "2", "--folds", "3", "--burn-in", "600", "--collect", "60", "--thin", "2",
        "--min-leaf", "8", "--s-max", "6"]
# Oximetry in bins of 2 around its planted cut 92, clipped to -3..3, with its zeros
# written "-0" and "0" in turn: the first zero is -0.0, but the trees' zero threshold is
# 0.0, the representative np.unique keeps
SIGNED_ZERO = 14
FILTER = ["--variable", "11"]  # used by 26 of the 100 trained trees
FILTER_DEEP = ["--variable", "10"]  # used by 20 of the 100 deep trees

PINNED = {
    "train/ensemble.jsonl": "54e412d8f65e9498883e742ee2393583f19e2e2dd3d311618d92b77b55acb841",
    "train_deep/ensemble.jsonl":
        "1a13e706a0a41795c43a3cd916e739959bd63fbb56c693f677e32f101724a9ba",
    "compare/compare.csv": "d8c77f44a6af96951ca659cceb1b74771007e4c94f695b6e14b8eb7793a73f2a",
    "compare/importance.csv": "a62e49d49131a94238c00b7ce6d370145b34e8860e219192c037539cda4ffc51",
    "eval/report.csv": "3fc7443aa4b3d4a93c562a55ae004f8871ea3ccb49ba9cfc0683b936e0ca160b",
    "importance/importance.csv": "7a1eeec144732989ba3e00d3d12a27d02583c46c617b4fdfe3be6d89385db3ff",
    "filter/filtered_ensemble.jsonl":
        "6a8ba05aae83e3c3e653edd8d35b517a24edab01989214ae36ff866bbb611a54",
    "filter/report.txt": "5c18b48add0d495dde82df8621916e04aa3c8cf92d0d3b033f0fcfb8023bf446",
    "filter_deep/filtered_ensemble.jsonl":
        "a42bc9092fc5624e5191b0c02d86763be8c393ab159fd5d5eb5927c447f92cd8",
    "filter_deep/report.txt": "6f18a4af038b24135eed8c45439ee9c24be94d415f89e19a7a1a518a3537fb32",
    "train_signed_zero/ensemble.jsonl":
        "d01bd8e351a9ef2bb60b4f531b79b46d076899c93d6e7a45a48bf59f01d89153",
}


PRINTED = {
    "compare": "45b2b6e0673a328eb44984884b625c58f416b1da9dfeaf52c2765859e8e847f1",
    "eval": "204d69f494516018c8d98986f082ecc7c6128a36f8806965f508b334f407f82f",
    "filter": "0d7d43cc7c3ea103aa040a21f6386dfea9f4f48ba65ef3cdb704dbbf3588a0aa",
    "filter_deep": "d2ad3adcdd9a2d4b371e0b0c613de8411034aa147d4cbec37eacfe436d726379",
    "importance": "fb13a8bbe44fb0d4438b5d88e8c1e311a710235d3e11d1eb2d504d739bb037c3",
    "synth": "b151aa04c447ed7b6ed8da586add131f51169646fe60a29eabf6faa786ab4e71",
    "train": "d2d018cd190282910be4c1e4584aa6b39a726f67e8fde2385c0fdcf9d7044299",
    "train_deep": "2f549b123ed64f85dd575648570e5c4ea0898469c0d3aea8f5b3cc6444ee1e92",
    "train_signed_zero": "bfed5d212718f8bffdda5f03ce3481899670e30233bbffdcc5de1861680b1fee",
}

MANIFESTS = {
    "compare": "f041e9a54172eff5e1f3d4ff70dfdc1ed0a33dc611c8b6ddc9533a97c8cdee50",
    "eval": "0276bbf0b0ac64dece5bd767c6c6c3335ef836cadd00782171b8a2d288349113",
    "filter": "5ba35f519754580e4c9de722f64a694d31a5c836525e7fd275a8f6fb526646b4",
    "filter_deep": "5e6dc3d42b059c9f9d52ebf2f95f29c7695eec25142cc701a3353768db20d8f3",
    "importance": "3b2ab534d97c528610483c9d1da13fa49b1b553d32816e8fd047f690cee4e055",
    "synth": "c7bff03c6468f1898acd9393b7896d5e0e7006ba69c705161cd2bc5baaeeb5e3",
    "train": "4915710f8d373c9172af4dcc79c5e22dbef1a5645bb7d0af301c58bc5a96cb0b",
    "train_deep": "d5639d57b5acb5e54bbe8004e1fc36871ae128a96feebcce3cd29d3a0b8b62b4",
    "train_signed_zero": "3f562a2b553717688e88feea9586773be0b08c1eca5836c38858786e482b213f",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, small_data):
    root = tmp_path_factory.mktemp("pinned")
    (root / "printed").mkdir()

    def run(name, *argv):
        """main(argv) into root/name; what it prints goes to root/printed/name."""
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert main([*argv, "--out-dir", str(root / name)]) == 0
        (root / "printed" / name).write_text(printed.getvalue(), encoding="utf-8")

    data = root / "data.csv"
    save_csv(small_data, data)
    run("train", "train", "--data", str(data), *TRAIN)
    run("train_deep", "train", "--data", str(data), *TRAIN_DEEP)
    run("compare", "compare", "--data", str(data), *COMPARE)
    run("eval", "eval", "--data", str(data), *EVAL)
    ensemble = str(root / "train" / "ensemble.jsonl")
    run("importance", "importance", "--ensemble", ensemble)
    run("filter", "filter", "--ensemble", ensemble, *FILTER, "--data", str(data))
    signed = root / "signed_zero.csv"
    _write_signed_zero(small_data, signed)
    run("train_signed_zero", "train", "--data", str(signed), *TRAIN)
    deep = str(root / "train_deep" / "ensemble.jsonl")
    run("filter_deep", "filter", "--ensemble", deep, *FILTER_DEEP, "--data", str(data))
    run("synth", "synth", "--rows", "60", "--seed", "4", "--irrelevant", "3")
    return root


def _write_signed_zero(data, path):
    binned = np.clip(np.round((data.X[:, SIGNED_ZERO] - 92) / 2), -3, 3)
    zeros = 0
    lines = [",".join(data.schema.names + [data.schema.outcome])]
    for row, b, label in zip(data.X, binned, data.y):
        cells = [repr(float(v)) for v in row]
        cells[SIGNED_ZERO] = str(int(b)) if b else "-0" if zeros % 2 == 0 else "0"
        zeros += not b
        lines.append(",".join(cells + [str(int(label))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_pinned(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == PINNED[name]


def _digest(text: str, root) -> str:
    return hashlib.sha256(text.replace(str(root), "<root>").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_printout_pinned(outputs, name):
    assert _digest((outputs / "printed" / name).read_text(encoding="utf-8"), outputs) \
        == PRINTED[name]


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_manifest_pinned(outputs, name):
    manifest = json.loads((outputs / name / "manifest.json").read_text(encoding="utf-8"))
    del manifest["command"]  # treebma and the argv, temporary paths and all: not pinned
    assert _digest(json.dumps(manifest, sort_keys=True), outputs) == MANIFESTS[name]
