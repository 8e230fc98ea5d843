"""Regenerate ``anchor.json``, the located torus the ``locate`` workload starts from.

Runs the ``hslag reduce`` search once for the benchmark's locate problem (see
``workloads.LOCATE``) from ``random_frame_state(ctx, 1)`` and stores the frame
of the certified torus.  Takes about a minute on one core.

    python3 perfbench/make_anchor.py
"""

import json
import os
import sys

from run import HERE, prepare


def main() -> int:
    prepare()
    from hslag import cli, reduction
    from hslag.cli import DEFAULT_TOLERANCES
    from workloads import LOCATE, locate_config

    config = locate_config()
    ctx = cli._reduction_context(config)
    result = reduction.optimize_frame(ctx, config.t, reduction.random_frame_state(ctx, 1))
    if result.gradient_norm > DEFAULT_TOLERANCES["gradient_norm"]:
        print(f"search did not converge: |dK| = {result.gradient_norm:.3e}", file=sys.stderr)
        return 1
    frame = result.state.frame.anchored(ctx.metric)
    anchor = {
        "problem": LOCATE,
        "point": frame.base_point.tolist(),
        "matrix": frame.base_matrix.tolist(),
    }
    with open(os.path.join(HERE, "anchor.json"), "w") as handle:
        json.dump(anchor, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
