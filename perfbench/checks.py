"""Output checks made apart from the program.

Every function here returns a list of failed-check names (empty when the
output is right).  Nothing in this module imports ``distobs``: references
are recomputed with numpy from the inputs the benchmark generated, or taken
from the planted oracle of :mod:`family`, or from properties the method must
have (asymptotic reconstruction, window coverage of a switching signal).
"""

import csv
import json

import numpy as np

CONVERGED = 1e-6          # normalized error every node must reach at the end
STATE_RTOL = 1e-9         # trace.x against the benchmark's own A^k x0
EIG_MATCH = 1e-6          # class representative against a planted eigenvalue
ORTH_TOL = 1e-10          # ||T^T T - I||
TRIANGULAR_TOL = 1e-8     # upper blocks of T^-1 A T, relative to ||A||


def state_reference(A, x0, K):
    """``x[k] = A^k x0`` for ``k = 0..K``, by repeated products."""
    xs = np.empty((K + 1, len(x0)))
    xs[0] = x0
    for k in range(K):
        xs[k + 1] = A @ xs[k]
    return xs


def _normalized_errors(xhat_last, x_last):
    return np.linalg.norm(xhat_last - x_last[None, :], axis=1) / (
        1.0 + np.linalg.norm(x_last))


def _match_class(rep, eigs):
    """Index of the planted class whose eigenvalue pair contains ``rep``."""
    for c, lam in enumerate(eigs):
        if min(abs(rep - lam), abs(rep - np.conj(lam))) < EIG_MATCH:
            return c
    return None


# ---------------------------------------------------------------------------
# generated family, checked against the planted oracle


def feasibility(rep, inst):
    """Both verdicts pass; the covered classes and root sets are planted."""
    bad = []
    if not rep.cond1.ok:
        bad.append("condition 1 verdict is FAIL, planted PASS")
    if not rep.cond2.ok:
        bad.append("condition 2 verdict is FAIL, planted PASS")
    matched = [_match_class(complex(rep.classes[k].rep), inst.eigs)
               for k in rep.unstable]
    if None in matched or sorted(matched) != list(range(len(inst.eigs))):
        bad.append("classes needing coverage differ from the planted ones")
        return bad
    for k, c in zip(rep.unstable, matched):
        if tuple(rep.root_sets.get(k, ())) != (inst.sensing[c],):
            bad.append(f"root set of class {c} is {rep.root_sets.get(k)}, "
                       f"planted ({inst.sensing[c]},)")
    return bad


def condition1_design(design, inst):
    """Scheme-1 structure: one core component, planted sub-state sizes,
    orthogonal T with block lower triangular T^-1 A T, certified."""
    core = tuple(range(1, inst.n_core + 1))
    if len(design.components) != 1 or tuple(design.components[0].nodes) != core:
        return ["source components differ from the planted core"]
    comp = design.components[0]
    d = comp.bank.decomposition
    bad = []
    want_o = tuple(2 if v in inst.sensing else 0 for v in core)
    if tuple(d.order) != core or tuple(d.o) != want_o:
        bad.append("sub-state dimensions o differ from 2 at sensing nodes, 0 elsewhere")
    if d.u_dim != inst.n - 2 * len(inst.eigs):
        bad.append(f"u_dim is {d.u_dim}, planted tail is {inst.n - 2 * len(inst.eigs)}")
    T = np.asarray(d.T)
    if np.abs(T.T @ T - np.eye(inst.n)).max() > ORTH_TOL:
        bad.append("T is not orthogonal")
    else:
        Abar = np.linalg.solve(T, inst.A @ T)
        cuts = np.cumsum((0, *d.o, d.u_dim))
        upper = max(np.abs(Abar[lo:hi, hi:]).max(initial=0.0)
                    for lo, hi in zip(cuts[:-1], cuts[1:]))
        if upper > TRIANGULAR_TOL * max(1.0, np.linalg.norm(inst.A, 2)):
            bad.append(f"T^-1 A T is not block lower triangular ({upper:.3g})")
    if not comp.stability.ok:
        bad.append("a Scheme-1 stability report is not ok")
    relays = set(range(inst.n_core + 1, inst.n_nodes + 1))
    got = set(design.relay.relay_nodes) if design.relay is not None else set()
    if got != relays:
        bad.append("relay nodes differ from the planted relay-only nodes")
    return bad


def condition2_design(bank, inst):
    """Scheme-2 structure: each node detects exactly its planted unstable
    class (none for nodes without sensors); every relayed class is rooted
    at its sensing node."""
    classes = bank.jsys.classes
    planted = [_match_class(complex(c.rep), inst.eigs) for c in classes]
    bad = []
    owner = {v: c for c, v in enumerate(inst.sensing)}
    for split in bank.jsys.per_node:
        seen = {planted[k] for k in split.detectable if planted[k] is not None}
        want = {owner[split.node]} if split.node in owner else set()
        if seen != want:
            bad.append(f"node {split.node} detects classes {sorted(seen)}, "
                       f"planted {sorted(want)}")
            break
    for k, cw in bank.class_weights.items():
        c = planted[k]
        if c is None or tuple(cw.roots) != (inst.sensing[c],):
            bad.append(f"relay roots of class {k} are {tuple(cw.roots)}")
    return bad


def trace(tr, A, x0, K, n_nodes):
    """``x[k] = A^k x0`` and every node's normalized error below 1e-6 at the
    last record, both recomputed here from the trace's raw arrays."""
    x_ref = state_reference(A, x0, K)
    x = np.asarray(tr.x)
    xhat = np.asarray(tr.xhat)
    if x.shape != x_ref.shape or xhat.shape != (n_nodes, K + 1, len(x0)):
        return ["trace has the wrong shape"]
    bad = []
    gap = np.linalg.norm(x - x_ref, axis=1) / (1.0 + np.linalg.norm(x_ref, axis=1))
    if not np.all(gap <= STATE_RTOL):
        bad.append("trace.x differs from A^k x0")
    errs = _normalized_errors(xhat[:, -1], x_ref[-1])
    if not np.all(errs < CONVERGED):
        worst = int(np.nanargmax(np.where(np.isfinite(errs), errs, np.inf)))
        bad.append(f"node {worst + 1} not reconstructed at the last record "
                   f"(normalized error {errs[worst]:.3g})")
    return bad


def convergence(metrics, n_nodes):
    """The program's own convergence summary agrees that every node ends
    below 1e-6."""
    if len(metrics) != n_nodes:
        return ["convergence_metrics has the wrong node count"]
    if not all(m.final_rel_error < CONVERGED for m in metrics):
        return ["convergence_metrics reports a node above 1e-6"]
    return []


def window_coverage(signal, parent_map, edges, T, K):
    """Recompute Assumption 2 for a switching signal: every designed parent
    link is a graph edge, every mode lies in the graph, and every window of
    ``T`` steps keeps a live edge from some parent of every routed node."""
    edges = set(edges)
    bad = []
    for label, pmap in parent_map.items():
        for i, parents in pmap.items():
            if any((l, i) not in edges for l in parents):
                return [f"parent map {label} uses a link absent from the graph"]
    if any(not set(m) <= edges for m in signal.modes):
        bad.append("a signal mode holds an edge absent from the graph")
    live = [signal.modes[signal.schedule[k]] for k in range(K)]
    if all(len(m) == len(edges) for m in live):
        bad.append("the signal never drops a link")
    for w0 in range(0, K, T):
        window = live[w0:w0 + T]
        for label, pmap in parent_map.items():
            for i, parents in pmap.items():
                if parents and not any((l, i) in m for m in window for l in parents):
                    return bad + [f"window at step {w0} starves node {i} ({label})"]
    return bad


# ---------------------------------------------------------------------------
# scenario files and CLI outputs


def strict_json(path):
    """Parse a JSON file, refusing the non-standard NaN/Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    with open(path) as f:
        return json.load(f, parse_constant=refuse)


def _source_components(n_nodes, edges):
    reach = np.eye(n_nodes, dtype=bool)
    for j, i in edges:
        reach[j - 1, i - 1] = True
    for k in range(n_nodes):     # transitive closure (tiny graphs only)
        reach |= reach[:, [k]] & reach[[k], :]
    comps = []
    for v in range(n_nodes):
        comp = tuple(int(u) + 1 for u in np.nonzero(reach[v] & reach[:, v])[0])
        if comp not in comps:
            comps.append(comp)
    members = {v: c for c in comps for v in c}
    fed = {members[i] for j, i in edges if members[j] != members[i]}
    return [c for c in comps if c not in fed]


def _full_column_rank(M):
    s = np.linalg.svd(M, compute_uv=False)
    return s.size == M.shape[1] and s[-1] > 1e-9 * max(1.0, s[0])


def pbh_verdicts(scenario):
    """Both feasibility verdicts of a small scenario, from the PBH rank test
    at every eigenvalue on or outside the unit circle, over source components
    found by transitive closure."""
    A = np.array(scenario["plant"]["A"], dtype=float)
    n = A.shape[0]
    C = [np.array(c, dtype=float).reshape(-1, n) for c in scenario["plant"]["C"]]
    edges = [tuple(e) for e in scenario["graph"]["edges"]]
    lams = [lam for lam in np.linalg.eigvals(A) if abs(lam) >= 1.0 - 1e-9]
    ok = lambda Ci, lam: _full_column_rank(np.vstack([A - lam * np.eye(n), Ci]))
    cond1 = cond2 = True
    for comp in _source_components(len(C), edges):
        stacked = np.vstack([C[v - 1] for v in comp])
        cond1 &= all(ok(stacked, lam) for lam in lams)
        cond2 &= all(any(ok(C[v - 1], lam) for v in comp) for lam in lams)
    return cond1, cond2


def check_report(report, cond1, cond2, inst=None):
    """``distobs check --out`` verdicts against the expected ones and, for a
    generated scenario, unstable eigenvalues and root sets against the
    oracle."""
    bad = []
    if report["cond1"]["ok"] is not cond1 or report["cond2"]["ok"] is not cond2:
        bad.append(f"verdicts ({report['cond1']['ok']}, {report['cond2']['ok']}) "
                   f"differ from ({cond1}, {cond2})")
    if inst is not None:
        reps = [complex(re, im) for re, im in report["unstable_eigenvalues"]]
        matched = [_match_class(r, inst.eigs) for r in reps]
        if None in matched or sorted(matched) != list(range(len(inst.eigs))):
            return bad + ["reported unstable eigenvalues differ from the planted ones"]
        for k, c in enumerate(matched):
            if report["root_sets"].get(str(k)) != [inst.sensing[c]]:
                bad.append(f"reported root set of class {c} is "
                           f"{report['root_sets'].get(str(k))}")
    return bad


def trace_header(n, n_nodes):
    """Columns ``write_trace_csv`` documents: step, mode, the state, then per
    node its estimate, absolute error and normalized error."""
    head = ["step", "mode"] + [f"x_{d}" for d in range(1, n + 1)]
    for i in range(1, n_nodes + 1):
        head += [f"xhat_{i}_{d}" for d in range(1, n + 1)]
        head += [f"err_{i}", f"relerr_{i}"]
    return head


def read_trace_csv(path, n, n_nodes):
    """Return ``(header, steps, modes, x, xhat)`` with ``xhat`` shaped
    ``(n_nodes, rows, n)``."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    stride = n + 2
    vals = np.array([[float(v) for v in r[2:]] for r in body]).reshape(len(body), -1)
    x = vals[:, :n]
    per = vals[:, n:].reshape(len(body), n_nodes, stride)
    xhat = per[:, :, :n].transpose(1, 0, 2)
    modes = [r[1] for r in body]
    steps = [int(r[0]) for r in body]
    return header, steps, modes, x, xhat


def trace_csv(path, A, x0, K, n_nodes, switching=False, exact_by=None):
    """A CLI trace: documented columns, ``K + 1`` rows, ``x = A^k x0``,
    every node reconstructed at the end (and from record ``exact_by`` on,
    when given).  Returns ``(failures, x, xhat)``."""
    n = len(x0)
    header, steps, modes, x, xhat = read_trace_csv(path, n, n_nodes)
    if header != trace_header(n, n_nodes):
        return ["trace CSV columns differ from the documented ones"], None, None
    if steps != list(range(K + 1)):
        return [f"trace CSV has {len(steps)} records, expected {K + 1}"], None, None
    bad = []
    if switching != all(m != "" for m in modes[:-1]) or modes[-1] != "":
        bad.append("trace CSV mode column does not match the run's switching")
    x_ref = state_reference(A, x0, K)
    gap = np.linalg.norm(x - x_ref, axis=1) / (1.0 + np.linalg.norm(x_ref, axis=1))
    if not np.all(gap <= STATE_RTOL):
        bad.append("trace CSV state differs from A^k x0")
    errs = _normalized_errors(xhat[:, -1], x_ref[-1])
    if not np.all(errs < CONVERGED):
        bad.append("trace CSV: a node is not reconstructed at the last record")
    if exact_by is not None:
        for k in range(exact_by, K + 1):
            if not np.all(_normalized_errors(xhat[:, k], x_ref[k]) < 1e-12):
                bad.append(f"trace CSV: error is not zero from step {exact_by} on")
                break
    return bad, x, xhat


def summary(path, K, n_nodes):
    """A ``--summary`` file: strict JSON, one entry per node, ``K + 1``
    steps, every final normalized error finite and below 1e-6."""
    try:
        s = strict_json(path)
    except ValueError as exc:
        return [f"summary is not strict JSON ({exc})"]
    if s.get("steps") != K + 1 or len(s.get("nodes", ())) != n_nodes:
        return ["summary has the wrong step or node count"]
    errs = [node["final_rel_error"] for node in s["nodes"]]
    if not all(isinstance(e, (int, float)) and e < CONVERGED for e in errs):
        return ["summary reports a node above 1e-6"]
    return []
