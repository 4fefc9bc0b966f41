"""The byte ledger: the sha256 of every file one small CLI pipeline writes.

`tests/test_ledger.py` runs the pipeline and compares its digests with
`tests/golden/ledger.json`.  A change that moves bytes on purpose rewrites
the ledger in the same commit, so the diff names the files that moved:

    PYTHONPATH=src python tests/ledger.py

Every command runs as a fresh ``protoeeg`` process with one BLAS thread,
from one working directory and with relative paths, so the run records
(which store paths as given) are part of the ledger too.  The bytes depend
on the numpy and BLAS build, which the ledger names.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

LEDGER = Path(__file__).resolve().parent / "golden" / "ledger.json"
SRC = Path(__file__).resolve().parents[1] / "src"

# 4 epochs with pushes at 2 and 4; the split's 145 training windows leave a
# partial last batch of 17
TRAIN_CONFIG = {"num_train_epochs": 4, "num_warm_epochs": 1,
                "num_secondary_warm_epochs": 1, "push_start": 1,
                "push_epochs": [2, 4], "joint_lr_step_size": 2,
                "batch_size": 32, "last_layer_max_iters": 100, "seed": 3}

# (output directory, protoeeg arguments), run in this order
COMMANDS = (
    ("synth", ["synth", "--n", "200", "--seed", "11"]),
    ("pre", ["preprocess", "--input", "raw.npz"]),
    ("split", ["split", "--data", "synth", "--seed", "5"]),
    ("train", ["train", "--data", "split", "--config", "train.json"]),
    ("eval", ["eval", "--model", "train", "--data", "split", "--rounds", "500"]),
    ("push", ["push", "--model", "train", "--data", "split"]),
    ("explain", ["explain", "--model", "train", "--data", "split", "--sample-id", "7"]),
    # every row of every class, so the order of equal |points| shows
    ("explain_all", ["explain", "--model", "train", "--data", "split",
                     "--sample-id", "150", "--top-k", "108"]),
    ("report", ["report", "--model", "train", "--data", "split"]),
)


def build() -> dict:
    """The numpy version and the BLAS build the bytes were taken on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")}}


def _write_inputs(workdir: Path) -> None:
    rng = np.random.default_rng(17)
    np.savez(workdir / "raw.npz",
             values=(20 * rng.standard_normal((12, 256, 37))).astype(np.float32),
             sample_rate_hz=np.float64(256.0), votes=rng.integers(0, 9, 12))
    (workdir / "train.json").write_text(json.dumps(TRAIN_CONFIG))


def run_pipeline(workdir: Path) -> dict:
    """Run every command in an empty `workdir`; returns {relative path:
    sha256} of every file the commands wrote, the inputs left out."""
    workdir = Path(workdir)
    _write_inputs(workdir)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    code = "import sys; from protoeeg.cli import main; sys.exit(main(sys.argv[1:]))"
    for out, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", out],
                              cwd=workdir, env=env, capture_output=True, timeout=300)
        if proc.returncode != 0:
            raise RuntimeError(f"protoeeg {' '.join(argv)} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')}")
    return {p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for out, _ in COMMANDS for p in sorted((workdir / out).rglob("*"))
            if p.is_file()}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        files = run_pipeline(Path(tmp))
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps({"build": build(), "files": files},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} digests to {LEDGER}")


if __name__ == "__main__":
    main()
