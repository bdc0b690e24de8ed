"""Seeded inputs for the benchmark workloads.

Every file is written once per benchmark invocation, before any timed run.
The returned descriptions carry the generator parameters and the sha256 of
each file, so a result can be traced back to the exact bytes measured.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# train-wide: a wide, sparse stream in which per-feature state keeps growing
WIDE = {
    "lines": 3000,
    "nnz_per_line": 40,
    "index_space": 2 ** 18,
    "zipf_exponent": 1.1,
    "log10_scale_lo": -3.0,
    "log10_scale_hi": 3.0,
    "label_flip": 0.05,
}

# sweep-narrow: the dense synth_scaled stream the η sweep is tuned on
NARROW = {"d": 20, "T": 1500, "log10_scale_lo": -3.0, "log10_scale_hi": 3.0}

# regret-bounds: the CLI's default instance shape, one instance per check
REGRET = {"d": 3, "T": 200, "instances": 1}

# --seed picks one of this many input variants (seed % VARIANTS); every
# variant has recorded reference outputs in references.json
VARIANTS = 16
GRID_POINTS = 27   # nol sweep's default η grid, 2^-20 .. 2^6


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _describe(path: str, root: str, generator: str, params: dict, seed: int) -> dict:
    return {
        "path": os.path.relpath(path, root),
        "generator": generator,
        "params": dict(params),
        "seed": seed,
        "sha256": _sha256(path),
        "bytes": os.path.getsize(path),
    }


def write_wide(path: str, seed: int, p: dict = WIDE) -> int:
    """svmlight lines with exactly p["nnz_per_line"] distinct indices each.

    Indices are ranks drawn with probability ~ 1/rank**zipf_exponent and
    scattered over the index space by a fixed permutation; each feature has
    a log-uniform scale, so unnormalized values span many decades. Labels
    come from a hidden linear rule on the unscaled values, with flips.
    Returns the number of lines written.
    """
    rng = np.random.default_rng(seed)
    n_idx, k = p["index_space"], p["nnz_per_line"]
    cdf = np.cumsum(1.0 / np.arange(1, n_idx + 1) ** p["zipf_exponent"])
    cdf /= cdf[-1]
    rank_to_index = rng.permutation(n_idx)
    scales = 10.0 ** rng.uniform(p["log10_scale_lo"], p["log10_scale_hi"], size=n_idx)
    w_true = rng.normal(size=n_idx)
    with open(path, "w") as fh:
        for _ in range(p["lines"]):
            picked = set()
            while len(picked) < k:
                draws = np.searchsorted(cdf, rng.random(2 * k), side="right")
                for r in draws.tolist():
                    picked.add(r)
                    if len(picked) == k:
                        break
            idx = np.sort(rank_to_index[list(picked)])
            base = rng.uniform(-1.0, 1.0, size=k)
            base[base == 0.0] = 0.5
            y = 1 if float(w_true[idx] @ base) >= 0.0 else -1
            if rng.random() < p["label_flip"]:
                y = -y
            # .tolist() gives Python ints and floats, whose repr the
            # svmlight parser accepts (numpy scalars repr as np.float64(...))
            vals = (base * scales[idx]).tolist()
            fh.write(" ".join([str(y)] + [f"{i}:{v!r}" for i, v in zip(idx.tolist(), vals)]))
            fh.write("\n")
    return p["lines"]


def write_narrow(path: str, seed: int, p: dict = NARROW) -> int:
    """synth_scaled serialized with serialize_svmlight; returns the line count."""
    from nol.data import serialize_svmlight, synth_scaled

    examples = synth_scaled(p["d"], p["T"], seed=seed, log10_scale_lo=p["log10_scale_lo"],
                            log10_scale_hi=p["log10_scale_hi"])
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(serialize_svmlight(ex) + "\n")
    return len(examples)


WIDE_KINDS = (("ng", "0.5", "none"), ("nag", "0.5", "none"), ("snag", "0.5", "none"),
              ("adagrad", "0.5", "maxnorm"), ("sgd", "0.05", "maxnorm"))
REGRET_CHECKS = (("thm1", "hinge"), ("thm2", "logistic"), ("lemma1", "squared"))


def make(workload: str, data_seed: int, work_dir: str, root: str) -> dict:
    """Write the inputs of one workload and describe the run.

    Returns {"commands", "inputs", "lines", "work"}: commands is a list of
    (label, argv) for nol.cli.main, each writing its report to
    work_dir/<label>.json; inputs describes every generated file; lines is
    the line count of the data file (0 when there is none); work is the
    number of work items one pass of the command list completes (examples,
    sweep cells or bound-check instances).
    """
    os.makedirs(work_dir, exist_ok=True)

    def report(label):
        return os.path.join(work_dir, label.replace(":", "-") + ".json")

    if workload == "train-wide":
        path = os.path.join(work_dir, "wide.svm")
        lines = write_wide(path, data_seed)
        work = lines * len(WIDE_KINDS)
        inputs = [_describe(path, root, "bench.inputs.write_wide", WIDE, data_seed)]
        commands = [
            (f"train:{kind}",
             ["train", "--data", path, "--learner", kind, "--loss", "logistic",
              "--eta", eta, "--normalize", norm, "--report", report(f"train:{kind}")])
            for kind, eta, norm in WIDE_KINDS
        ]
    elif workload == "sweep-narrow":
        path = os.path.join(work_dir, "narrow.svm")
        lines = write_narrow(path, data_seed)
        work = 3 * GRID_POINTS
        inputs = [_describe(path, root, "nol.data.synth_scaled+serialize_svmlight",
                            NARROW, data_seed)]
        commands = [("sweep", ["sweep", "--data", path, "--learners", "ng,nag,snag",
                               "--loss", "logistic", "--report", report("sweep")])]
    elif workload == "regret-bounds":
        lines = 0
        work = REGRET["instances"] * len(REGRET_CHECKS)
        inputs = [{"generator": "nol.regret.random_instance (inside the CLI)",
                   "params": dict(REGRET), "seed": data_seed}]
        commands = [
            (f"regret:{check}",
             ["regret", "--check", check, "--loss", loss, "--seed", str(data_seed),
              "--instances", str(REGRET["instances"]), "--d", str(REGRET["d"]),
              "--T", str(REGRET["T"]), "--report", report(f"regret:{check}")])
            for check, loss in REGRET_CHECKS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"commands": commands, "inputs": inputs, "lines": lines, "work": work}


# everything the recorded references depend on
PARAMS = {"variants": VARIANTS, "train-wide": WIDE, "train-wide-kinds": WIDE_KINDS,
          "sweep-narrow": NARROW, "regret-bounds": REGRET, "regret-checks": REGRET_CHECKS}
