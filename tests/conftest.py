import numpy as np

# Profiles of the families that take them (the oscillator with deltas).
STACK_PROFILES = {
    "evans": {"potential": (0.0, 0.3, 0.1)},
    "oscillator": {"deltas": (0.1, 0.02)},
    "electromagnetic": {"potential": (0.0, 1.0, 0.2), "vector": (0.1, 0.5)},
    "variable_mass": {"mass_profile": (1.0, 0.5), "potential": (0.0, 0.2)},
}


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


def gradient_mismatch(quantity, points):
    """Worst relative deviation of analytic vs central-difference gradients."""
    worst = 0.0
    for x in points:
        aq, ap = quantity.gradient_fn(x.q, x.p)
        nq, npp = central_gradient(quantity.value_fn, x.q, x.p)
        scale = max(1.0, float(np.max(np.abs(aq))), float(np.max(np.abs(ap))))
        worst = max(
            worst,
            float(np.max(np.abs(aq - nq))) / scale,
            float(np.max(np.abs(ap - npp))) / scale,
        )
    return worst
