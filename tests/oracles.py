"""Independent brute-force implementations used as test oracles.

Everything here is written from first principles (dense matrices, explicit
enumeration) and deliberately avoids the package's own construction code.
"""

import itertools
import math

import numpy as np

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron_all(matrices):
    """Little-endian tensor product: matrices[0] acts on qubit 0."""
    out = matrices[-1]
    for m in reversed(matrices[:-1]):
        out = np.kron(out, m)
    return out


def spins_of(z: int, n: int) -> list[int]:
    return [1 - 2 * ((z >> i) & 1) for i in range(n)]


def ising_cost_table(n, couplings, fields, constant) -> np.ndarray:
    """Cost of every basis state by direct evaluation."""
    costs = np.zeros(2**n)
    for z in range(2**n):
        s = spins_of(z, n)
        total = constant
        for (i, j), value in couplings:
            total += value * s[i] * s[j]
        for i, hi in enumerate(fields):
            total += hi * s[i]
        costs[z] = total
    return costs


def cut_size(z: int, n: int, edges) -> int:
    bits = [(z >> i) & 1 for i in range(n)]
    return sum(1 for (i, j) in edges if bits[i] != bits[j])


def portfolio_cost_table(mu, sigma, q, budget, penalty, lam) -> np.ndarray:
    """Classical portfolio objective per basis state, expanded term by term.

    Selection variables follow the package convention x_i = bit_i, so the
    budget penalty vanishes exactly on Hamming-weight-`budget` strings.
    """
    n = len(mu)
    costs = np.zeros(2**n)
    for z in range(2**n):
        s = spins_of(z, n)
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += (lam / 2) * (q * sigma[i][j] + penalty) * s[i] * s[j]
        for i in range(n):
            k_i = (lam / 2) * (
                penalty * (2 * budget - n)
                + (1 - q) * mu[i]
                - q * sum(sigma[i][j] for j in range(n))
            )
            total -= k_i * s[i]
        costs[z] = total
    return costs


def qaoa_unitary(n, couplings, fields, constant, gammas, betas) -> np.ndarray:
    """Product-form QAOA unitary from the diagonal cost and RX mixer."""
    costs = ising_cost_table(n, couplings, fields, constant)
    u = kron_all([H_MATRIX] * n)
    for gamma, beta in zip(gammas, betas):
        u = np.diag(np.exp(-1j * gamma * costs)) @ u
        theta = 2 * beta
        rx = np.array(
            [
                [np.cos(theta / 2), -1j * np.sin(theta / 2)],
                [-1j * np.sin(theta / 2), np.cos(theta / 2)],
            ]
        )
        u = kron_all([rx] * n) @ u
    return u


def maxcut_p1_expectation(n, edges, gamma, beta):
    """Closed-form p=1 QAOA expected cut size, summed edge by edge.

    Wang, Hadfield, Jiang & Rieffel, arXiv:1706.02998, Theorem 1, for
    exp(-i beta sum X) exp(-i gamma C) on |+>^n: an edge (u, v) with d_u
    and d_v further neighbours and t common neighbours contributes
    1/2 + (1/4) sin 4b sin g (cos^d_u g + cos^d_v g)
        - (1/4) sin^2 2b cos^(d_u + d_v - 2t) g (1 - cos^t 2g).
    gamma and beta broadcast as numpy arrays.
    """
    gamma, beta = np.asarray(gamma, float), np.asarray(beta, float)
    neighbours = {v: set() for v in range(n)}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    total = np.zeros(np.broadcast(gamma, beta).shape)
    for u, v in edges:
        d_u, d_v = len(neighbours[u]) - 1, len(neighbours[v]) - 1
        t = len(neighbours[u] & neighbours[v])
        total += 0.5 + 0.25 * np.sin(4 * beta) * np.sin(gamma) * (
            np.cos(gamma) ** d_u + np.cos(gamma) ** d_v
        )
        total -= (
            0.25
            * np.sin(2 * beta) ** 2
            * np.cos(gamma) ** (d_u + d_v - 2 * t)
            * (1 - np.cos(2 * gamma) ** t)
        )
    return total


def permutation_matrix(wire_to_logical, n) -> np.ndarray:
    """Maps a logical-basis state to the wire-basis state holding it."""
    dim = 2**n
    p = np.zeros((dim, dim))
    for x in range(dim):
        y = 0
        for wire in range(n):
            if (x >> wire_to_logical[wire]) & 1:
                y |= 1 << wire
        p[y, x] = 1
    return p


def all_simple_paths(num_vertices, edges, k) -> set[tuple[int, ...]]:
    """Every k-vertex simple path, canonicalized to the smaller endpoint."""
    adjacency = {v: set() for v in range(num_vertices)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    found = set()

    def walk(path):
        if len(path) == k:
            if path[0] > path[-1]:
                found.add(tuple(reversed(path)))
            else:
                found.add(tuple(path))
            return
        for nxt in adjacency[path[-1]]:
            if nxt not in path:
                walk(path + [nxt])

    for start in range(num_vertices):
        walk([start])
    return found


def distribution_metrics(costs, dist_bits_to_prob, sense, feasible_weight=None):
    """Mean/opt/SP of a distribution keyed by integer basis index."""
    n = int(np.log2(len(costs)))
    items = dict(dist_bits_to_prob)
    if feasible_weight is not None:
        items = {z: p for z, p in items.items() if bin(z).count("1") == feasible_weight}
        total = sum(items.values())
        items = {z: p / total for z, p in items.items()}
    else:
        total = sum(items.values())
        items = {z: p / total for z, p in items.items()}
    feasible = [
        z
        for z in range(2**n)
        if feasible_weight is None or bin(z).count("1") == feasible_weight
    ]
    opt = min(costs[z] for z in feasible) if sense == "min" else max(
        costs[z] for z in feasible
    )
    mean = sum(p * costs[z] for z, p in items.items())
    winners = {z for z in feasible if abs(costs[z] - opt) <= 1e-9 * max(1, abs(opt))}
    sp = sum(p for z, p in items.items() if z in winners)
    return mean, opt, sp


# --- dense Kraus-path reference for the density-matrix engine ---

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def embed(op, qubits, n) -> np.ndarray:
    """op (qubits[0] its local LSB) on all n qubits, as a sum of kron_all terms."""
    full = np.zeros((2**n, 2**n), dtype=complex)
    for r in range(op.shape[0]):
        for c in range(op.shape[1]):
            if op[r, c] == 0:
                continue
            factors = [np.eye(2, dtype=complex) for _ in range(n)]
            for m, q in enumerate(qubits):
                unit = np.zeros((2, 2), dtype=complex)
                unit[(r >> m) & 1, (c >> m) & 1] = 1.0
                factors[q] = unit
            full += op[r, c] * kron_all(factors)
    return full


def depolarizing_family(lam, k) -> list[np.ndarray]:
    """Kraus operators of rho -> (1 - lam) rho + lam I/d, one per Pauli string."""
    dim = 2**k
    strings = [kron_all(list(p)) for p in itertools.product(PAULIS, repeat=k)]
    first = np.sqrt(1.0 - lam + lam / dim**2) * strings[0]
    return [first] + [np.sqrt(lam) / dim * p for p in strings[1:]]


def relaxation_family(duration_ns, t1_us, t2_us) -> list[np.ndarray]:
    """Amplitude damping, then the dephasing T2 adds beyond T1 (T2 <= 2 T1)."""
    t = duration_ns * 1e-3
    decay = 1.0 - np.exp(-t / t1_us)
    rate = max(1.0 / t2_us - 0.5 / t1_us, 0.0)
    # the dephasing weights sqrt(1 - d) and sqrt(d), d = 1 - exp(-2 t rate),
    # formed without the cancellation in 1 - d when d is near 1
    kept, lost = np.exp(-t * rate), np.sqrt(-np.expm1(-2.0 * t * rate))
    lowering = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    damping = [np.diag([1.0, np.sqrt(1.0 - decay)]), np.sqrt(decay) * lowering]
    phasing = [np.diag([1.0, kept]), np.diag([0.0, lost])]
    return [p @ a for a in damping for p in phasing]


def wrap_angle(theta) -> float:
    """theta reduced to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def pulse_form(unit, edge, dev):
    """(CR segment length, segment count, single-qubit layers) of a pulse
    composite, from the rule table of ``bqaoa.lower``: a scaled ZZ pulse is
    affine in |angle| (capped at the CX form) with two segments beside the
    intercept; CZ_OPT lasts D + s (or its pin) with two segments beside one
    layer; a pulse ZZ_SWAP is three CZ_OPT.  TC adds a layer per side."""
    s = dev.single_qubit_duration("sx")
    d = edge.cx_duration_ns

    def pinned(name, default):
        value = edge.composite_duration(name)
        return default if value is None else value

    tc_layers = 2 if unit.polarity.value == "tc" else 0
    if unit.kind.value == "zz":
        cr = dev.cr_scale
        scaled = cr.intercept_ns + abs(wrap_angle(unit.angle)) / math.pi * cr.slope_ns_per_pi
        length = min(scaled, pinned("zz", 2.0 * d))
        layers = int(round(cr.intercept_ns / s)) if s > 0 else 0
        return max(0.0, (length - cr.intercept_ns) / 2.0), 2, layers + tc_layers
    cz_segment = max(0.0, (pinned("cz_opt", d + s) - s) / 2.0)
    if unit.kind.value == "cz":
        return cz_segment, 2, 1 + tc_layers
    return cz_segment, 6, 3 + tc_layers


def effective_error(unit, gates, edge, dev) -> float:
    """Failure probability of a lowered composite realized by ``gates``.

    Pulse forms scale the CX error by segment length; CX-based forms take
    (1 - cx_error) per CX and (1 - sx_error) per non-virtual single-qubit
    gate on each side, counted off the gate list, the side holding the CX
    control being the edge's native control.  Same arithmetic, in the same
    order, as the package.
    """
    sx_a = dev.qubits[edge.control].sx_error
    sx_b = dev.qubits[edge.target].sx_error
    if unit.pulse:
        segment, segments, layers = pulse_form(unit, edge, dev)
        survival = (1.0 - 0.5 * (sx_a + sx_b)) ** layers
        for _ in range(segments):
            survival *= max(0.0, 1.0 - edge.cx_error * segment / edge.cx_duration_ns)
        return min(1.0, max(0.0, 1.0 - survival))
    survival = (1.0 - edge.cx_error) ** unit.cx_count
    control_wire = next(g.qubits[0] for g in gates if g.kind.value == "cx")
    counts = {}
    for g in gates:
        if g.kind.value in ("rz", "cx") or len(g.qubits) != 1:
            continue
        counts[g.qubits[0]] = counts.get(g.qubits[0], 0) + 1
    for wire, count in counts.items():
        survival *= (1.0 - (sx_a if wire == control_wire else sx_b)) ** count
    return min(1.0, max(0.0, 1.0 - survival))


def unit_kraus_steps(unit, gates, idle_ns, noise, n, gate_matrix) -> list[list[np.ndarray]]:
    """Kraus families of one scheduled unit, realized by ``gates``, on all n
    qubits, in order.

    ``noise`` supplies ``scale`` and per-wire ``qubits[w].t1_us``/``t2_us``;
    ``gate_matrix(kind, param)`` gives each gate's local matrix.
    """
    scale = noise.scale
    steps = []

    def relax(w, duration):
        q = noise.qubits[w]
        family = relaxation_family(duration * scale, q.t1_us, q.t2_us)
        steps.append([embed(op, (w,), n) for op in family])

    if scale > 0:
        for w, idle in zip(unit.wires, idle_ns):
            if idle > 0:
                relax(w, idle)
    for g in gates:
        if g.kind.value != "barrier":
            steps.append([embed(gate_matrix(g.kind, g.param), g.qubits, n)])
    dim = 2 ** len(unit.wires)
    lam = min(1.0, scale * unit.error * dim / (dim - 1))
    if lam > 0:
        family = depolarizing_family(lam, len(unit.wires))
        steps.append([embed(op, unit.wires, n) for op in family])
    if scale > 0 and unit.duration_ns > 0:
        for w in unit.wires:
            relax(w, unit.duration_ns)
    return steps


def apply_kraus_steps(rho, steps) -> np.ndarray:
    """rho through each Kraus family in turn, one operator at a time."""
    for family in steps:
        rho = sum(k @ rho @ k.conj().T for k in family)
    return rho


def kraus_evolve(lowered, unit_gates, noise, gate_matrix) -> np.ndarray:
    """Density matrix after a lowered circuit's schedule, from |0...0>;
    ``unit_gates[i]`` are the hardware gates of unit i."""
    n = lowered.num_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    last_busy = [0.0] * n
    for unit, gates, start in zip(lowered.units, unit_gates, lowered.start_times):
        idle = [start - last_busy[w] for w in unit.wires]
        for w in unit.wires:
            last_busy[w] = start + unit.duration_ns
        steps = unit_kraus_steps(unit, gates, idle, noise, n, gate_matrix)
        rho = apply_kraus_steps(rho, steps)
    return rho


def probe_choi(apply, dim) -> np.ndarray:
    """Trace-normalized Choi matrix from sending each |i><j| through ``apply``.

    Row = input*dim + output, as in the package.
    """
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[i, j] = 1.0
            choi[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = apply(basis)
    return choi / dim


def tensordot_apply(array, mat, qubits, num_qubits) -> np.ndarray:
    """Apply a 2^k x 2^k matrix on the ket index of a (2^n,) or (2^n, m) array.

    qubits[0] is the least-significant bit of the matrix's local index.  One
    tensordot over the target axes of the (2,)*n tensor, then the new axes
    are moved back into place.
    """
    k = len(qubits)
    t = array.reshape((2,) * num_qubits + (-1,))
    # Axis of qubit q is num_qubits-1-q; the local matrix reshapes with its
    # most-significant bit (qubits[k-1]) first.
    mat_t = mat.reshape((2,) * (2 * k))
    tensor_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    res = np.tensordot(mat_t, t, axes=(list(range(k, 2 * k)), tensor_axes))
    res = np.moveaxis(res, list(range(k)), tensor_axes)
    return np.ascontiguousarray(res.reshape(array.shape))


def einsum_apply_superop(rho, superop, wires) -> np.ndarray:
    """rho with a k-qubit superoperator applied to ``wires`` by one einsum.

    The superoperator acts on the row-major vec of a k-qubit operator: entry
    (a*2^k + b, i*2^k + j) maps |i><j| to |a><b|, and local qubit l is bit l
    of a, b, i and j.  Local qubit l is wire wires[l] of rho.
    """
    n, k = rho.shape[0].bit_length() - 1, len(wires)
    # axis n-1-q of the (2,)*2n tensor is row bit q, axis 2n-1-q column bit q
    rows = [n - 1 - w for w in reversed(wires)]
    old = rows + [n + a for a in rows]
    new = list(range(2 * n, 2 * n + 2 * k))
    out = list(range(2 * n))
    for a, b in zip(old, new):
        out[a] = b
    tensor = np.einsum(
        superop.reshape((2,) * (4 * k)), new + old,
        rho.reshape((2,) * (2 * n)), list(range(2 * n)), out, optimize=True,
    )
    return tensor.reshape(rho.shape)


def per_unit_evolve(lowered, noise, unit_channel, standard) -> np.ndarray:
    """Density matrix after a lowered circuit's schedule, from |0...0>, with
    one superoperator apply per unit in program order and nothing fused.

    A wire that idled since it was last busy first gets its own apply of
    ``noise.relaxation(wire, t)``; then ``unit_channel(unit, noise)`` gives
    the unit's channel (a barrier has none).  ``standard`` turns each into
    its superoperator, which is applied to the standard 2^n x 2^n rho by
    ``einsum_apply_superop``.
    """
    n = lowered.num_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    last_busy = [0.0] * n
    for unit, start in zip(lowered.units, lowered.start_times):
        for w in unit.wires:
            if start > last_busy[w]:
                idle = standard(noise.relaxation(w, start - last_busy[w]))
                rho = einsum_apply_superop(rho, idle, (w,))
            last_busy[w] = start + unit.duration_ns
        if unit.kind.value != "barrier":
            channel = standard(unit_channel(unit, noise))
            rho = einsum_apply_superop(rho, channel, unit.wires)
    return rho
