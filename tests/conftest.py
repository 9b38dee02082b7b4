import numpy as np

from superint import PhasePoint

# Profiles of the families that take them (the oscillator with deltas).
STACK_PROFILES = {
    "evans": {"potential": (0.0, 0.3, 0.1)},
    "oscillator": {"deltas": (0.1, 0.02)},
    "electromagnetic": {"potential": (0.0, 1.0, 0.2), "vector": (0.1, 0.5)},
    "variable_mass": {"mass_profile": (1.0, 0.5), "potential": (0.0, 0.2)},
}


def left_to_right(terms):
    """terms[0] + terms[1] + ..., one addition at a time from the first term:
    the sum order the sl(2) kernel defines."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def split(sample):
    """The q and p views of a (P, 2N) sample (or of one row)."""
    n = sample.shape[-1] // 2
    return sample[..., :n], sample[..., n:]


def phase_points(sample):
    """The rows of a (P, 2N) sample as PhasePoints, for the per-point API."""
    return [PhasePoint(*split(row)) for row in sample]


def central_gradient(value_fn, q, p):
    """Central-difference gradient oracle, step h = 1e-6 * max(1, |x_i|)."""
    dq = np.zeros_like(q)
    dp = np.zeros_like(p)
    for i in range(q.size):
        h = 1e-6 * max(1.0, abs(q[i]))
        hi, lo = q.copy(), q.copy()
        hi[i] += h
        lo[i] -= h
        dq[i] = (value_fn(hi, p) - value_fn(lo, p)) / (2.0 * h)
    for i in range(p.size):
        h = 1e-6 * max(1.0, abs(p[i]))
        hi, lo = p.copy(), p.copy()
        hi[i] += h
        lo[i] -= h
        dp[i] = (value_fn(q, hi) - value_fn(q, lo)) / (2.0 * h)
    return dq, dp


def gradient_mismatch(quantity, sample):
    """Worst relative deviation of analytic vs central-difference gradients
    over the rows of a (P, 2N) sample."""
    worst = 0.0
    for q, p in map(split, sample):
        aq, ap = quantity.gradient_fn(q, p)
        nq, npp = central_gradient(quantity.value_fn, q, p)
        scale = max(1.0, float(np.max(np.abs(aq))), float(np.max(np.abs(ap))))
        worst = max(
            worst,
            float(np.max(np.abs(aq - nq))) / scale,
            float(np.max(np.abs(ap - npp))) / scale,
        )
    return worst
