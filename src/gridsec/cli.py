"""Command-line entry point.

Subcommands map onto the library: ``check`` (full N-1 verdict),
``enumerate`` (k-switchover trees), ``loadflow`` (single configuration
check), ``qubo`` (export the combined formulation), ``anneal`` (sample it)
and ``grover`` (amplified search for one failing edge).

Exit codes: 0 success / secure, 2 insecure network (``check``) or no
compliant switchover for the failing edge (``grover``), 1 bad input or
usage.  Stochastic commands require a seed, either via ``--seed`` or the
``GRIDSEC_SEED`` environment variable, and echo it in the output so every
run can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import os
import sys

from . import anneal, classical, grover, loadflow, n1qubo, network as net

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INSECURE = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _seed_from(args) -> int:
    """The ``--seed`` value, else ``GRIDSEC_SEED``: an integer in [0, 2**128),
    the key range of the Philox generator every stochastic command seeds."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif (env := os.environ.get("GRIDSEC_SEED")) is not None:
        source = "GRIDSEC_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {env!r}") from None
    else:
        raise ValueError("stochastic command needs --seed or GRIDSEC_SEED")
    if not 0 <= seed < 2**128:
        raise ValueError(f"{source} must lie in [0, 2**128), got {seed}")
    return seed


def _weights_from(args) -> n1qubo.PenaltyWeights:
    if not getattr(args, "weights", None):
        return n1qubo.PenaltyWeights()
    try:
        raw = json.loads(args.weights)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--weights is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"--weights must be a JSON object, got {args.weights}")
    allowed = {f.name for f in dataclasses.fields(n1qubo.PenaltyWeights)}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown weight keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    return n1qubo.PenaltyWeights(**raw)


def _build_qubo(grid: net.Network, args):
    """The QUBO and layout ``qubo`` and ``anneal`` work on: the tree QUBO with
    ``--tree-only``, else the combined N-1 QUBO."""
    weights = _weights_from(args)
    if args.tree_only:
        levels = n1qubo.default_levels(grid) if args.height is None else args.height
        return n1qubo.build_tree_qubo(grid, levels, weights=weights, failing_edge=args.failing_edge)
    return n1qubo.build_n1_qubo(
        grid,
        failing_edge=args.failing_edge,
        levels=args.height,
        bits_real=args.bits_u,
        bits_imag=args.bits_ui,
        bits_current=args.bits_i,
        weights=weights,
    )


def _switches(switch: net.Switchover) -> str:
    on = ",".join(map(str, sorted(switch.activate)))
    off = ",".join(map(str, sorted(switch.deactivate)))
    return f"on[{on}] off[{off}]"


def _check_writable(*paths: str | None) -> None:
    """Fail on an output path that cannot be written before any work starts,
    so a typo neither costs a run nor leaves a partial set of outputs; nothing
    is created or truncated here."""
    for path in filter(None, paths):
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def _write(path: str | None, content: str, label: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from None
        print(f"{label} written to {path}")
    else:
        sys.stdout.write(content)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    grid = net.load_network(args.network)
    report = classical.check_n1(grid, args.k_max)
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"{'edge':>6}  {'status':<10} {'k':>3}  witness")
        for eid, verdict in sorted(report.per_edge.items()):
            witness = "" if verdict.witness is None else _switches(verdict.witness)
            print(f"{eid:>6}  {verdict.status:<10} {verdict.k or '-':>3}  {witness}")
        single = sum(1 for v in report.per_edge.values() if v.k == 1)
        print(f"single-switchover coverage: {single}/{len(report.per_edge)} active edges")
        print(f"overall: {'SECURE' if report.overall else 'INSECURE'} "
              f"({report.loadflow_calls} load-flow calls)")
    return EXIT_OK if report.overall else EXIT_INSECURE


def cmd_enumerate(args) -> int:
    grid = net.load_network(args.network)
    restrict = frozenset({args.failing_edge}) if args.failing_edge is not None else None
    listing = classical.enumerate_reconfigurations(
        grid, grid.initial_configuration(), args.k, restrict_to=restrict
    )
    if args.format == "json":
        print(json.dumps([switch.as_dict() for switch, _ in listing], indent=2))
    else:
        for idx, (switch, _) in enumerate(listing):
            print(f"{idx:>4}: {_switches(switch)}")
        print(f"{len(listing)} reconfigurations (k={args.k})")
    return EXIT_OK


def cmd_loadflow(args) -> int:
    grid = net.load_network(args.network)
    cfg = grid.initial_configuration()
    if args.activate or args.deactivate:
        unknown = (set(args.activate) | set(args.deactivate)) - set(grid.edge_by_id)
        if unknown:
            return _fail(f"unknown edge ids {sorted(unknown)}")
        cfg = net.Configuration(cfg.edges - set(args.deactivate) | set(args.activate))
    solution = loadflow.solve_tree(grid, cfg)
    report = loadflow.check_compliance(grid, cfg, solution, args.tol)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for nid in sorted(solution.u):
            u = solution.u[nid]
            print(f"node {nid:>4}: |U| = {abs(u):12.3f} V  ({u.real:.3f} {u.imag:+.3f}j)")
        for eid in sorted(report.currents):
            i = report.currents[eid]
            print(f"edge {eid:>4}: |I| = {abs(i):12.3f} A")
        print("compliant" if report.compliant else f"violations: "
              f"{len(report.voltage_violations)} voltage, {len(report.current_violations)} current")
    return EXIT_OK


def cmd_qubo(args) -> int:
    grid = net.load_network(args.network)
    _check_writable(args.out, args.layout_out)
    qubo, layout = _build_qubo(grid, args)
    layout_doc = {
        "kind": "tree" if args.tree_only else "n1",
        "levels": layout.tree.levels,
        "failing_edge": layout.tree.failing_edge,
    }
    if not args.tree_only:
        layout_doc["bits"] = {"u_real": args.bits_u, "u_imag": args.bits_ui, "current": args.bits_i}
        layout_doc["group_weights"] = layout.weights
    labels = layout.labels
    layout_doc["variables"] = {str(i): label for i, label in enumerate(labels)}
    _write(args.out, qubo.dumps(labels=labels), "QUBO")
    if args.layout_out:
        _write(args.layout_out, json.dumps(layout_doc, indent=2) + "\n", "layout")
    print(f"variables: {qubo.n}", file=sys.stderr)
    return EXIT_OK


def cmd_anneal(args) -> int:
    grid = net.load_network(args.network)
    seed = _seed_from(args)
    beta_range = None
    if (args.beta_min is None) != (args.beta_max is None):
        return _fail("--beta-min and --beta-max must be given together")
    if args.beta_min is not None:
        beta_range = (args.beta_min, args.beta_max)
    _check_writable(args.histogram_out, args.samples_out)
    qubo, layout = _build_qubo(grid, args)
    schedule = anneal.AnnealSchedule(
        seed=seed,
        reads=args.reads,
        sweeps=args.sweeps,
        sweeps_per_beta=args.sweeps_per_beta,
        beta_range=beta_range,
    )
    try:
        samples = anneal.simulated_annealing(qubo, schedule)
    except MemoryError:
        raise MemoryError(f"annealing {schedule.reads} reads x {qubo.n} variables") from None
    if args.post_process:
        samples = anneal.post_process(qubo, samples)
    histogram = anneal.energy_histogram(qubo, samples, layout)
    if args.histogram_out:
        _write(args.histogram_out, histogram.to_csv(), "histogram")
    if args.samples_out:
        lines = ["energy,multiplicity,feasible,configuration"]
        for bits, energy, mult in samples:
            decoded = n1qubo.decode_solution(bits, layout)
            cfg = "-"
            if decoded.configuration is not None:
                cfg = " ".join(map(str, decoded.configuration.sorted()))
            lines.append(f"{energy!r},{mult},{int(decoded.feasible)},{cfg}")
        _write(args.samples_out, "\n".join(lines) + "\n", "samples")
    best_bits, best_energy = samples.first
    decoded = n1qubo.decode_solution(best_bits, layout)
    if args.format == "json":
        print(json.dumps({
            "seed": seed,
            "reads": samples.total_reads,
            "best_energy": best_energy,
            "best_feasible": decoded.feasible,
            "best_configuration": (
                sorted(decoded.configuration.edges) if decoded.configuration else None
            ),
            "histogram": histogram.as_dict(),
        }, indent=2))
        return EXIT_OK
    print(f"seed: {seed}")
    print(f"reads: {samples.total_reads}, distinct states: {len(samples)}")
    print(f"best energy: {best_energy!r} ({'feasible' if decoded.feasible else 'infeasible'})")
    if decoded.configuration is not None:
        print(f"best configuration: {sorted(decoded.configuration.edges)}")
    return EXIT_OK


def cmd_grover(args) -> int:
    grid = net.load_network(args.network)
    seed = _seed_from(args)
    space = grover.index_reconfigurations(grid, args.failing_edge, args.k)
    print(f"seed: {seed}")
    _check_writable(args.distribution_out)
    if args.iterations is not None and args.iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {args.iterations}")
    oracle = grover.make_oracle(grid, space)

    def no_compliant_switchover() -> int:
        print(
            f"no compliant switchover within k={args.k} for failing edge {args.failing_edge}"
            f" (candidates: {space.size}, oracle queries: {oracle.queries})"
        )
        return EXIT_INSECURE

    try:
        result = grover.grover_search(space, oracle, iterations=args.iterations, seed=seed)
    except grover.SearchFailure:
        return no_compliant_switchover()
    if args.distribution_out:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["id", "probability", "switchover_json"])
        for candidate_id, probability in enumerate(result.distribution):
            payload = json.dumps(space.switchover(candidate_id).as_dict())
            writer.writerow([candidate_id, repr(float(probability)), payload])
        _write(args.distribution_out, buffer.getvalue(), "distribution")
    marked = oracle.marked_ids()
    if not marked.size:
        return no_compliant_switchover()
    print(f"candidates: {space.size}, marked: {len(marked)}")
    print(f"iterations: {result.iterations}, oracle queries: {result.queries}")
    missed = "" if result.sampled_id in marked else " (not compliant)"
    print(f"sampled id {result.sampled_id}: {_switches(result.switchover)}{missed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line, like every other input error,
    since exit 2 means INSECURE; subparsers are built from this class too."""

    def error(self, message: str):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridsec",
        description="N-1 security toolkit for medium-voltage grid graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--network", required=True, help="network JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed (falls back to GRIDSEC_SEED)")

    def qubo_params(p):
        p.add_argument("--failing-edge", type=int, default=None)
        p.add_argument("--height", type=int, default=None,
                       help="depth levels of the rooted-tree encoding (default: node count)")
        p.add_argument("--bits-u", type=int, default=4, help="bits per real voltage")
        p.add_argument("--bits-ui", type=int, default=4, help="bits per imaginary voltage")
        p.add_argument("--bits-i", type=int, default=4, help="bits per branch current")
        p.add_argument("--weights", default=None,
                       help='JSON object of penalty weights, e.g. {"dw": 20}')
        p.add_argument("--tree-only", action="store_true",
                       help="omit the load-flow penalty groups")

    p = sub.add_parser("check", help="full N-1 verdict")
    common(p)
    p.add_argument("--k-max", type=int, default=1)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list k-switchover reconfigurations")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--failing-edge", type=int, default=None,
                   help="restrict to trees deactivating this edge")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("loadflow", help="solve and check one configuration")
    common(p)
    p.add_argument("--activate", type=int, nargs="*", default=[])
    p.add_argument("--deactivate", type=int, nargs="*", default=[])
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_loadflow)

    p = sub.add_parser("qubo", help="export the QUBO and its variable layout")
    common(p)
    qubo_params(p)
    p.add_argument("--out", default=None, help="QUBO text file (default stdout)")
    p.add_argument("--layout-out", default=None, help="layout sidecar JSON")
    p.set_defaults(func=cmd_qubo)

    p = sub.add_parser("anneal", help="sample the QUBO with simulated annealing")
    common(p, seed=True)
    qubo_params(p)
    p.add_argument("--reads", type=int, default=100)
    p.add_argument("--sweeps", type=int, default=10_000)
    p.add_argument("--sweeps-per-beta", type=int, default=20)
    p.add_argument("--beta-min", type=float, default=None,
                   help="cooling window start (default: automatic range)")
    p.add_argument("--beta-max", type=float, default=None,
                   help="cooling window end")
    p.add_argument("--post-process", action="store_true",
                   help="steepest descent on every read")
    p.add_argument("--samples-out", default=None)
    p.add_argument("--histogram-out", default=None)
    p.set_defaults(func=cmd_anneal)

    p = sub.add_parser("grover", help="amplitude-amplification search")
    common(p, seed=True)
    p.add_argument("--failing-edge", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--iterations", type=int, default=None,
                   help="fixed iteration count (default: unknown-count schedule)")
    p.add_argument("--distribution-out", default=None)
    p.set_defaults(func=cmd_grover)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # every write goes through _write, so a named file here is an input
        return _fail(f"cannot read {exc.filename}: {exc.strerror}" if exc.filename else str(exc))
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}")
    except (net.NetworkError, loadflow.SingularSystemError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
