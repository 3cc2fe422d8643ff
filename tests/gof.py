"""Chi-square goodness of fit of binned counts against a distribution function."""

import numpy as np


def gof_chi_square(counts, bin_edges, cdf):
    """Chi-square comparison of binned counts against a distribution function.

    Expected masses come from cdf differences over the bin edges, with the
    tail mass outside the edges folded into the end bins.  Adjacent bins are
    merged left to right until each group expects at least 5 counts.
    Returns (statistic, dof, pvalue).
    """
    from scipy.stats import chi2

    obs = np.asarray(counts, dtype=float)
    edges = np.asarray(bin_edges, dtype=float)
    if obs.size != edges.size - 1:
        raise ValueError("counts must have one entry per bin")
    n = obs.sum()
    if n <= 0:
        raise ValueError("counts are empty")
    cdf_vals = np.asarray(cdf(edges), dtype=float)
    probs = np.diff(cdf_vals)
    probs[0] += cdf_vals[0]
    probs[-1] += max(0.0, 1.0 - cdf_vals[-1])
    expected = n * probs

    grouped_obs: list[float] = []
    grouped_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            grouped_obs.append(acc_o)
            grouped_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if not grouped_obs:
            raise ValueError("expected counts too small to form a single group")
        grouped_obs[-1] += acc_o
        grouped_exp[-1] += acc_e
    go = np.asarray(grouped_obs)
    ge = np.asarray(grouped_exp)
    stat = float(np.sum((go - ge) ** 2 / ge))
    dof = max(1, go.size - 1)
    return stat, dof, float(chi2.sf(stat, dof))
