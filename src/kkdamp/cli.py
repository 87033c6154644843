"""Command-line front end.

Subcommands:

    run           scenario file(s): set up all, then simulate + checks, one
                  worker per CPU by default (--jobs N; --jobs 1 marches serially)
    simulate      scenario file: snapshots only, checks skipped
    decay         scenario file: norm series + decay verdict, its checks skipped
    entropy-pair  tabulate q(r) for a power entropy and a phi model
    region-check  boundary flow signs for a region Sigma
    convergence   vanishing-viscosity sweep for a scenario
    eigen         eigenstructure at a single state

Exit codes:

    0  every requested check passes
    1  a check failed, the model refused a value that parses (`--p 0.5`,
       `--epsilons 0.1,nan`, `--m 0.5`, `--r-max -1`), a file could not
       be read or written, or a `run` worker process died
    2  usage error: an unknown command or option, a missing option or
       value, an option value that does not parse, or one that breaks a
       limit the CLI sets itself (`--n < 0`, `--jobs < 1`, `--n` or
       `--samples` above MAX_ROWS)

Every refusal is one `error:` line on stderr. argparse types each option
value, and its usage errors reach `main` as UsageError, not as a usage
block and SystemExit; `--help` and `--version` exit 0.

The output root is --output-dir unless KKD_OUTPUT_DIR is set.

`run` marches its scenarios in worker processes, one per CPU the process
may use and at most one per scenario, unless `--jobs` says otherwise; with
one worker it marches in this process. Peak memory grows to one march per
worker. A march error, or an output directory that cannot be made, does
not stop the other marches: the verdicts of those that finished are
printed in scenario order, then one `error:` line for the first error; exit 1.

Each handler imports the modules it runs, so a short command such as
`eigen` loads only the model.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import __version__, _fmt
from .errors import KKDampError, ValidationError
from .model import (
    R_MAX_DEFAULT,
    Damping,
    PhiModel,
    State,
    classify_field,
    eigenvalues,
    eigenvectors,
)


MAX_ROWS = 10**7  # `entropy-pair --n` and `region-check --samples`; 80 MB per array


class UsageError(Exception):
    """A command line that cannot be used; `main` prints it and returns 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises a usage error as UsageError instead of
    printing its usage and exiting; `add_subparsers` hands on the class."""

    def error(self, message):
        raise UsageError(message)


def _values(kind=float, count=None, minimum=None, maximum=None):
    """An argparse type: an option's comma-separated values converted by
    `kind`, the value itself when `count` is 1. A value that does not
    convert, a wrong `count` or one outside [minimum, maximum] is refused."""

    def convert(text: str):
        try:
            values = [kind(tok) for tok in text.split(",")]
        except ValueError:
            values = []
        if not values or count not in (None, len(values)):
            noun = "integer" if kind is int else "number"
            expected = f"one {noun}" if count == 1 else f"{count or 'comma-separated'} {noun}s"
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        if minimum is not None and min(values) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {min(values)}")
        if maximum is not None and max(values) > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {max(values)}")
        return values[0] if count == 1 else values

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kkdamp",
        description="Damped symmetric Keyfitz-Kranzer system: solver and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"kkdamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help, output_dir=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if output_dir:
            p.add_argument("--output-dir", default=None, help="output root "
                           "(KKD_OUTPUT_DIR takes precedence; default ./kkd_out)")
        return p

    p_run = add_command("run", _cmd_run, help="simulate scenario(s) and run their checks")
    p_run.add_argument("scenarios", nargs="+", help="scenario file(s)")
    p_run.add_argument(
        "--jobs",
        type=_values(int, count=1, minimum=1),
        default=None,
        help="worker processes (default one per CPU; 1 marches serially in this process; "
        "peak memory grows to one march per worker)",
    )

    p_sim = add_command("simulate", _cmd_simulate, help="simulate one scenario, skip checks")
    p_sim.add_argument("scenario")

    p_dec = add_command("decay", _cmd_decay, help="norm decay fit for one scenario")
    p_dec.add_argument("scenario")
    p_dec.add_argument("--p", type=_values(count=1), default="2",
                       help="norm order (number or 'inf')")
    p_dec.add_argument("--weighted", action="store_true", help="use the exp(-sqrt(1+x^2)) weight")

    p_ent = add_command("entropy-pair", _cmd_entropy_pair, help="tabulate q(r) for eta = r**m")
    p_ent.add_argument("--m", type=float, required=True)
    p_ent.add_argument("--phi", required=True, help="e.g. power:1, shifted:1,1, const:1")
    p_ent.add_argument("--r-max", type=float, default=R_MAX_DEFAULT)
    p_ent.add_argument("--n", type=_values(int, count=1, minimum=0, maximum=MAX_ROWS),
                       default="200", help="table rows")
    p_ent.add_argument("--out", default=None, help="output file (default under output root)")

    p_reg = add_command("region-check", _cmd_region_check, help="boundary flow signs for Sigma",
                        output_dir=False)
    p_reg.add_argument("--phi", default="power:1")
    p_reg.add_argument("--a", type=float, required=True)
    p_reg.add_argument("--b", type=float, required=True)
    p_reg.add_argument("--c0", type=float, default=None, help="default phi(r_max/2)")
    p_reg.add_argument("--c1", type=float, default=0.5)
    p_reg.add_argument("--c2", type=float, default=2.0)
    p_reg.add_argument("--r-max", type=float, default=R_MAX_DEFAULT)
    p_reg.add_argument("--samples", type=_values(int, count=1, maximum=MAX_ROWS), default=64)
    p_reg.add_argument(
        "--skip-lower",
        action="store_true",
        help="exclude the {Z=C1} piece from the verdict (it is outward for C1 > 0)",
    )

    p_con = add_command("convergence", _cmd_convergence, help="vanishing-viscosity sweep")
    p_con.add_argument("scenario")
    p_con.add_argument(
        "--epsilons", type=_values(), default="0.1,0.05,0.025,0.0125",
        help="comma list, decreasing"
    )

    p_eig = add_command("eigen", _cmd_eigen, help="eigenstructure at one state",
                        output_dir=False)
    p_eig.add_argument("--phi", required=True)
    p_eig.add_argument("--state", type=_values(count=2), required=True, help="u,v")
    p_eig.add_argument("--r-max", type=float, default=R_MAX_DEFAULT)

    return parser


def _verdict(res) -> tuple[bool, str]:
    """A run's verdict and its `run` line: name, verdict, checks, output dir."""
    enabled = ",".join(f"{k}={'pass' if ok else 'FAIL'}" for k, ok in res.checks.items())
    return res.passed, (f"{res.name}: {'pass' if res.passed else 'FAIL'}"
                        + (f" [{enabled}]" if enabled else "") + f" -> {res.out_dir}")


def _run_verdict(s):
    """March one set-up; only its verdict, not the trajectory, leaves a `run`
    worker. An error that `main` reports on one line is returned, not
    raised, so the other marches go on."""
    from .scenario import run_set_up

    try:
        return _verdict(run_set_up(s))
    except (KKDampError, OSError) as exc:
        return exc


def _usable_cpus() -> int:
    """The CPUs this process may run on; all of the machine's where the
    platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


def _cmd_run(args) -> int:
    from .scenario import parse_scenario, set_up

    scenarios, paths = [], {}
    for sc in map(parse_scenario, args.scenarios):
        if sc.name in paths:
            raise ValidationError("name", f"{sc.name!r} names both {paths[sc.name]} and "
                                  f"{sc.path}; their artifacts would overwrite each other")
        paths[sc.name] = sc.path
        scenarios.append(sc)
    setups = [set_up(sc, args.output_dir) for sc in scenarios]  # every error before a march
    workers = min(args.jobs or _usable_cpus(), len(setups))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_run_verdict, setups))
        except BrokenProcessPool:
            print("error: a worker process died before its scenario finished (killed by a "
                  "signal or out of memory); --jobs 1 marches in this process",
                  file=sys.stderr)
            return 1
    else:
        outcomes = list(map(_run_verdict, setups))
    # every set-up was marched: the verdicts in scenario order, then the first error
    errors = [o for o in outcomes if isinstance(o, Exception)]
    verdicts = [o for o in outcomes if not isinstance(o, Exception)]
    for _, line in verdicts:
        print(line)
    if errors:
        raise errors[0]
    return 0 if all(passed for passed, _ in verdicts) else 1


def _set_up_without_checks(args):
    """Set up `args.scenario` without its `check.*` keys, which the command
    skips once the parser has typed them."""
    from .scenario import parse_scenario, set_up

    sc = parse_scenario(args.scenario)
    sc.entries = {k: e for k, e in sc.entries.items() if not k.startswith("check.")}
    return set_up(sc, args.output_dir)


def _cmd_simulate(args) -> int:
    from .scenario import run_set_up

    res = run_set_up(_set_up_without_checks(args))
    print(f"{res.name}: wrote {len(res.artifacts)} files -> {res.out_dir}")
    return 0


def _cmd_decay(args) -> int:
    from .analysis import decay_harness
    from .scenario import check_rate_schedule, run_set_up
    from .solver import _check_p

    _check_p(args.p)  # before the march
    s = _set_up_without_checks(args)
    check_rate_schedule(s.scenario, s.config, "decay")
    res = run_set_up(s)
    rep = decay_harness(res.trajectory, args.p, s.damping, s.phi, args.weighted)
    print(f"p = {args.p:g} weighted = {args.weighted}")
    print(f"fitted_rate = {_fmt(rep.fitted_rate)}")
    print(f"theorem_rate = {_fmt(rep.theorem_rate)}")
    print(f"rate_band = [{_fmt(rep.rate_band[0])}, {_fmt(rep.rate_band[1])}]")
    print(f"pointwise_ok = {rep.pointwise_ok}  rate_band_ok = {rep.rate_band_ok}")
    print(f"passed = {rep.passed}")
    return 0 if rep.passed else 1


def _cmd_entropy_pair(args) -> int:
    from pathlib import Path

    import numpy as np

    from .entropy import flux_bound, power_entropy_pair
    from .solver import output_dir, write_table

    phi = PhiModel.from_spec(args.phi, r_max=args.r_max)
    pair = power_entropy_pair(args.m, phi)
    rs = np.linspace(0.0, phi.r_max, args.n)
    safe_phi = args.phi.replace(":", "_").replace(",", "_").replace("/", "_")
    out_path = (Path(args.out) if args.out is not None
                else output_dir(args.output_dir) / f"entropy_pair_m{args.m:g}_{safe_phi}.tsv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_table(out_path, ("r", "q"), (rs, np.asarray(pair.q(rs), dtype=float)),
                comments=(f"entropy flux table: eta = r**{args.m:g}, phi = {phi.label}",))
    m_sup = phi.sup_phi()
    bound = flux_bound(pair, m_sup, phi.r_max)
    print(f"wrote {out_path}")
    print(f"flux bound |q| <= 2 m M r^m: max ratio {bound.max_ratio:.6f} "
          f"(M = {m_sup:g}) -> {'ok' if bound.passed else 'VIOLATED'}")
    return 0 if bound.passed else 1


def _cmd_region_check(args) -> int:
    from .region import RegionSigma, boundary_flow_check

    phi = PhiModel.from_spec(args.phi, r_max=args.r_max)
    c0 = args.c0 if args.c0 is not None else float(phi.phi(0.5 * phi.r_max))
    sigma = RegionSigma(c0=c0, c1=args.c1, c2=args.c2)
    d = Damping(args.a, args.b)
    rep = boundary_flow_check(sigma, phi, d, n_samples=args.samples)
    for piece in (rep.w_piece, rep.z_upper, rep.z_lower):
        state = "inward" if piece.passed else "OUTWARD"
        print(
            f"{piece.name}: {state}  (outward component max {piece.outward_max:+.3e}, "
            f"min {piece.outward_min:+.3e}, {piece.n_samples} samples)"
        )
    if not rep.z_lower.passed:
        print(
            "note: {Z=C1} with C1 > 0 is always outward under a > b; "
            "the angular drift -(a-b)Z crosses the lower edge. Use C1 = 0 "
            "for an invariant region."
        )
    ok = rep.inward_except_lower if args.skip_lower else rep.passed
    print(f"passed = {ok}")
    return 0 if ok else 1


def _cmd_convergence(args) -> int:
    from .solver import write_table
    from .viscous import check_epsilons, vanishing_viscosity_sweep

    s = _set_up_without_checks(args)
    epsilons = check_epsilons(args.epsilons)  # before the output directory is made
    s.out_dir.mkdir(parents=True, exist_ok=True)
    report = vanishing_viscosity_sweep(s.init, s.phi, s.damping, s.config, epsilons)
    rows = report.rows
    out_path = write_table(
        s.out_dir / f"{s.scenario.name}_viscosity_sweep.tsv",
        ("eps", "l1_distance", "n_steps"),
        ([r.eps for r in rows], report.distances, [r.n_steps for r in rows]),
    )
    for row in rows:
        print(f"eps = {row.eps:<10g} l1_distance = {row.l1_distance:.6e}")
    print(f"strictly_decreasing = {report.strictly_decreasing}")
    print(f"wrote {out_path}")
    return 0 if report.strictly_decreasing else 1


def _cmd_eigen(args) -> int:
    s = State(*args.state)
    phi = PhiModel.from_spec(args.phi, r_max=args.r_max)
    lam1, lam2 = eigenvalues(s, phi)
    basis = eigenvectors(s)
    print(f"state: u = {_fmt(s.u)}  v = {_fmt(s.v)}  r = {_fmt(s.r)}")
    print(f"lambda_1 = {_fmt(lam1)}")
    print(f"lambda_2 = {_fmt(lam2)}")
    print(f"r1 = ({_fmt(basis.r1[0])}, {_fmt(basis.r1[1])})")
    print(f"r2 = ({_fmt(basis.r2[0])}, {_fmt(basis.r2[1])})")
    for i in (1, 2):
        c = classify_field(s, phi, i)
        print(f"field {i}: {c.kind} (indicator {_fmt(c.gn_value)})")
    return 0


def _show_warning(message, *_):
    """A warning is one `warning: <message>` line on stderr, without the
    source path and line of the code that raised it; the message's runs of
    whitespace, newlines included, become single spaces."""
    print("warning: " + " ".join(str(message).split()), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():  # forked --jobs workers inherit it
            warnings.showwarning = _show_warning
            return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KKDampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file or directory that cannot be read, written or made
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
