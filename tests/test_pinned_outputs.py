"""Output bytes pinned across commits.

Every other determinism test compares two runs of the same code, so none of
them notices when a change alters the random draw sequence, the node ids or
the order of a floating-point sum. This test runs ``train`` (twice: shallow
and deep trees), ``compare`` and ``eval`` on fixed inputs, then ``importance``
and ``filter`` on the trained ensembles, and compares the sha256 of their
outputs with constants recorded from an earlier commit. A change that alters
the chain's output on purpose updates the constants below and says so in
CHANGES.md; any other mismatch is a regression.
"""
import hashlib

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
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, small_data):
    root = tmp_path_factory.mktemp("pinned")
    data = root / "data.csv"
    save_csv(small_data, data)
    assert main(["train", "--data", str(data), *TRAIN, "--out-dir", str(root / "train")]) == 0
    assert main(["train", "--data", str(data), *TRAIN_DEEP,
                 "--out-dir", str(root / "train_deep")]) == 0
    assert main(["compare", "--data", str(data), *COMPARE,
                 "--out-dir", str(root / "compare")]) == 0
    assert main(["eval", "--data", str(data), *EVAL, "--out-dir", str(root / "eval")]) == 0
    ensemble = str(root / "train" / "ensemble.jsonl")
    assert main(["importance", "--ensemble", ensemble,
                 "--out-dir", str(root / "importance")]) == 0
    assert main(["filter", "--ensemble", ensemble, *FILTER, "--data", str(data),
                 "--out-dir", str(root / "filter")]) == 0
    deep = str(root / "train_deep" / "ensemble.jsonl")
    assert main(["filter", "--ensemble", deep, *FILTER_DEEP, "--data", str(data),
                 "--out-dir", str(root / "filter_deep")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_pinned(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == PINNED[name]
