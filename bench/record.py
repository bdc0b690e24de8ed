"""Record the reference outputs that bench/checks.py compares against.

    python3 bench/record.py

For every input variant of every workload, runs the workload's command list
once through nol.cli.main and stores what the checks need in
bench/references.json. The references pin the program's outputs: rerun
this only when the benchmark's inputs change, never to make a check pass.
"""

import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import nol.cli  # noqa: E402
from nol.core import get_loss  # noqa: E402
from nol.regret import conditioned_run, random_instance  # noqa: E402


def _reports(workload, variant, work_dir):
    run = inputs.make(workload, variant, work_dir, ROOT)
    for label, argv in run["commands"]:
        if nol.cli.main(argv) != 0:
            raise SystemExit(f"{workload} variant {variant}: {label} failed")
        with open(argv[argv.index("--report") + 1]) as fh:
            yield label, json.load(fh)


def _learner_loss(check, loss, seed):
    """The conditioned learner's total loss in one regret instance, as the
    CLI runs it; the comparator loss is this minus the reported regret."""
    examples = random_instance(seed, d=inputs.REGRET["d"], T=inputs.REGRET["T"],
                               classification=loss != "squared")
    if check == "lemma1":
        ledger = conditioned_run(examples, get_loss(loss), 1.0, recipe="streaming",
                                 projection=False)
    else:
        recipe = "transductive" if check == "thm1" else "streaming"
        ledger = conditioned_run(examples, get_loss(loss), 1.0, recipe=recipe, q=1,
                                 projection=True)
    return ledger.total_loss


def main():
    refs = {"params": json.loads(json.dumps(inputs.PARAMS))}
    losses = dict(inputs.REGRET_CHECKS)
    work = os.path.join(BENCH, ".work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in ("train-wide", "sweep-narrow", "regret-bounds"):
            refs[workload] = {}
            for variant in range(inputs.VARIANTS):
                ref = {}
                for label, rep in _reports(workload, variant, tmp):
                    kind = label.split(":")[-1]
                    if workload == "train-wide":
                        ref[kind] = rep["average_loss"]
                    elif workload == "sweep-narrow":
                        ref = {k: v["eta"] for k, v in rep["best"].items()}
                    else:
                        ref[kind] = []
                        for inst in rep["reports"]:
                            learner = _learner_loss(kind, losses[kind], inst["seed"])
                            ref[kind].append({
                                "learner_loss": learner,
                                "comparator_loss": learner - inst["empirical_regret"],
                                "bound_value": inst["bound_value"],
                            })
                refs[workload][str(variant)] = ref
                print(workload, variant, json.dumps(ref), flush=True)
    with open(os.path.join(BENCH, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
