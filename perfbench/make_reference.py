"""Write perfbench/reference.json, the behaviour reference of the workloads.

    python3 perfbench/make_reference.py

Run from the repository root.  Records, for the code in ``src/``:

- ``segment_default``: the fingerprint (final energy, halt reason,
  iterations, mean DSC) of every pinned scene;
- ``learn_toy``: commits, energy totals before and after, and the weights;
- ``dataset_cli``: model ``t`` and variance fraction for generator seeds
  0..49 (other seeds are checked against the library path at run time).

A run reports scenes that differ from it as ``evolution.fingerprint_diffs``.
Regenerate it only in a change that means to alter behaviour, and say why.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402

CLI_SEEDS = range(50)


def main():
    segment = workloads.SegmentDefault(7, None, {})
    segment.setup()
    scenes = {}
    for index, scene in enumerate(segment.scenes):
        masks, state = segment.run(index)
        scenes[scene.scene_id] = workloads.fingerprint(masks, state,
                                                       scene.truth)
    learn = workloads.LearnToy(7, None, {})
    learn.setup()
    problems = learn.check(0, learn.run(0))
    if problems:
        raise SystemExit(f"learn_toy fails its checks: {problems}")
    doc = {
        "segment_default": scenes,
        "learn_toy": learn.observed,
        "dataset_cli": {str(seed): workloads.reference_model(
            seed, workloads.DatasetCli.SCENES) for seed in CLI_SEEDS},
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
