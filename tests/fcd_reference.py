"""Plain-loop reference for the k-in-a-row search of centrode.fcd_detect;
the package itself uses only the vectorized one."""

import numpy as np


def fcd_onset_loop(dev, xi, window):
    """Position of the first sample of the first run of `window`
    consecutive finite deviations above xi, or None.

    Non-finite deviations (invalid samples) neither extend nor reset a run.
    """
    run = 0
    run_start = None
    for k in range(len(dev)):
        if not np.isfinite(dev[k]):
            continue
        if dev[k] > xi:
            if run == 0:
                run_start = k
            run += 1
            if run >= window:
                return run_start
        else:
            run = 0
            run_start = None
    return None
