"""Output bytes pinned across commits.

Every other determinism test compares two runs of the same code, so none of
them notices when a change alters the random draw sequence, the node ids or
the order of a floating-point sum. This test runs ``train`` and ``compare``
on fixed inputs and compares the sha256 of their outputs with constants
recorded from an earlier commit. A change that alters the chain's output on
purpose updates the constants below and says so in CHANGES.md; any other
mismatch is a regression.
"""
import hashlib

import pytest

from treebma import save_csv
from treebma.cli import main

TRAIN = ["--seed", "1", "--burn-in", "3000", "--collect", "100", "--thin", "5",
         "--min-leaf", "5", "--s-max", "8"]
COMPARE = ["--seed", "3", "--folds", "3", "--variable", "1", "--burn-in", "600",
           "--collect", "60", "--thin", "2", "--min-leaf", "8", "--s-max", "6"]

PINNED = {
    "train/ensemble.jsonl": "54e412d8f65e9498883e742ee2393583f19e2e2dd3d311618d92b77b55acb841",
    "compare/compare.csv": "d8c77f44a6af96951ca659cceb1b74771007e4c94f695b6e14b8eb7793a73f2a",
    "compare/importance.csv": "a62e49d49131a94238c00b7ce6d370145b34e8860e219192c037539cda4ffc51",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, small_data):
    root = tmp_path_factory.mktemp("pinned")
    data = root / "data.csv"
    save_csv(small_data, data)
    assert main(["train", "--data", str(data), *TRAIN, "--out-dir", str(root / "train")]) == 0
    assert main(["compare", "--data", str(data), *COMPARE,
                 "--out-dir", str(root / "compare")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_pinned(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == PINNED[name]
