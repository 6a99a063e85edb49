"""Reference copy of the quadratic, Fraction-based adversary layer.

This is the construction, verifier and bound chain as they were before the
linear-time rewrite in ``ramseydensity.colorings``.  It is kept only as the
oracle for the differential tests: every phi block is rebuilt as a set, every
inequality is evaluated in rational arithmetic, and the bound chain solves
each crossing from scratch with the per-level scan of ``lipschitz_reference``,
so it shares no code with the crossing sweep under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ramseydensity.colorings import BLUE, RED, AdversaryInstance
from lipschitz_reference import gamma_crossing


def _min_indices(positions, opposite_left_count, lam, count):
    out = []
    a = 1
    for i in range(1, count + 1):
        while a <= len(positions) and opposite_left_count(a) > lam * (a - i):
            a += 1
        if a > len(positions):
            break
        out.append(a)
    return out


def adversary(s, r, g, n):
    """The instance for lam = s/r on n vertices, without the nested verify."""
    lam = Fraction(s, r)
    reds_so_far = 0
    colors = []
    for m in range(1, n + 1):
        target = math.floor((m + g(float(m))) / 2 + 1e-12)
        step = target - reds_so_far
        if step not in (0, 1):
            raise ValueError("g is not 1-Lipschitz along integers")
        colors.append(RED if step == 1 else BLUE)
        reds_so_far = target
    red_pos = tuple(i for i, c in enumerate(colors) if c == RED)
    blue_pos = tuple(i for i, c in enumerate(colors) if c == BLUE)

    def blues_left_of_red(a):
        return red_pos[a - 1] - (a - 1)

    def reds_left_of_blue(b):
        return blue_pos[b - 1] - (b - 1)

    alpha = tuple(_min_indices(red_pos, blues_left_of_red, lam, n))
    beta = tuple(_min_indices(blue_pos, reds_left_of_blue, lam, n))

    joint = min(len(alpha), len(beta))
    while joint > 0 and alpha[joint - 1] + beta[joint - 1] > n:
        joint -= 1

    phi = []
    placed = set()
    for a_j, b_j in zip(alpha[:joint], beta[:joint]):
        block = sorted(set(red_pos[:a_j]) | set(blue_pos[:b_j]))
        fresh = [v for v in block if v not in placed]
        phi.extend(fresh)
        placed.update(fresh)
        if len(phi) != a_j + b_j:
            raise AssertionError("phi block sizes are inconsistent")
    phi.extend(v for v in range(n) if v not in placed)
    return AdversaryInstance(s=s, r=r, n=n, g=g, vertex_colors=tuple(colors),
                             alpha=alpha, beta=beta, phi=tuple(phi))


def verify_adversary(inst):
    problems = []
    lam = Fraction(inst.s, inst.r)
    g = inst.g
    reds = 0
    for m in range(1, inst.n + 1):
        if inst.vertex_colors[m - 1] == RED:
            reds += 1
        if reds != math.floor((m + g(float(m))) / 2 + 1e-12):
            problems.append(f"red prefix count wrong at m={m}")
            break
    if tuple(i for i, c in enumerate(inst.vertex_colors) if c == RED) != inst.red_positions:
        problems.append("red positions inconsistent")
    if tuple(i for i, c in enumerate(inst.vertex_colors) if c == BLUE) != inst.blue_positions:
        problems.append("blue positions inconsistent")

    def check_min(indices, left_count, name):
        prev = 1
        for i, a_i in enumerate(indices, start=1):
            if left_count(a_i) > lam * (a_i - i):
                problems.append(f"{name}_{i} does not satisfy its inequality")
            for a in range(prev, a_i):
                if left_count(a) <= lam * (a - i):
                    problems.append(f"{name}_{i} = {a_i} is not minimal (a={a} works)")
                    break
            prev = a_i

    def blues_left_of_red(a):
        return inst.red_positions[a - 1] - (a - 1)

    def reds_left_of_blue(b):
        return inst.blue_positions[b - 1] - (b - 1)

    check_min(inst.alpha, blues_left_of_red, "alpha")
    check_min(inst.beta, reds_left_of_blue, "beta")

    if any(b2 <= b1 for b1, b2 in zip(inst.beta, inst.beta[1:])):
        problems.append("beta is not strictly increasing")

    for j, (a_j, b_j) in enumerate(zip(inst.alpha, inst.beta), start=1):
        if a_j + b_j > inst.n:
            break
        block = set(inst.phi[:a_j + b_j])
        want = set(inst.red_positions[:a_j]) | set(inst.blue_positions[:b_j])
        if block != want:
            problems.append(f"phi block {j} mismatch")
    if sorted(inst.phi) != list(range(inst.n)):
        problems.append("phi is not a permutation")
    return problems


def adversary_bound_chain(inst, i_min=50, tol=1e-6):
    p = inst.gamma_param
    lam = float(inst.lam)
    gamma = p.gamma
    problems = []
    joint = min(len(inst.alpha), len(inst.beta))
    while joint > 0 and inst.alpha[joint - 1] + inst.beta[joint - 1] > inst.n:
        joint -= 1
    for i in range(i_min, joint + 1):
        w = (2 / (1 + lam)) * (lam * i + 2 * lam + 2)
        zp = gamma_crossing(inst.g, p, w, 1)
        zm = gamma_crossing(inst.g, p, w, -1)
        if not (math.isfinite(zp) and math.isfinite(zm)):
            problems.append(f"crossing infinite at i={i}")
            continue
        if inst.alpha[i - 1] > (1 - gamma) * zp / 2 + w / 2 + tol:
            problems.append(f"alpha bound fails at i={i}")
        if inst.beta[i - 1] > (1 - gamma) * zm / 2 + w / 2 + 2 + tol:
            problems.append(f"beta bound fails at i={i}")
    return problems
