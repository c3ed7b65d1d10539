"""Batch front end: parse problem configs, run solve/check/verify.

Config files are flat key = value text with section headers
[geometry] [domain] [problem] [solver].  H and phi accept arithmetic
expressions in x, y, r (see expr module).  Exit codes are a stable
contract: 0 ok, 1 input error, 2 continuation stalled, 3 hypothesis
failed, 4 verification failed.
"""

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys

from . import analysis, geometry, grid as gridmod, solver
from .errors import ContinuationStalled, InputError, KGraphError
from .expr import compile_expression
from .grid import build_grid, read_field_csv, write_field_csv
from .operator import ProblemSpec


@dataclasses.dataclass
class RunConfig:
    h: float
    spec: ProblemSpec
    solve_config: solver.SolveConfig
    source: str


def _number_or_expression(value, what):
    try:
        return float(value)
    except ValueError:
        pass
    try:
        return compile_expression(value)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None


def parse_config(path):
    """Parse a run configuration; raises InputError with key context."""
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise InputError(f"{path}: {exc}") from None

    def need(section, key):
        if not parser.has_option(section, key):
            raise InputError(f"{path}: missing [{section}] {key}")
        return parser.get(section, key)

    def number(section, key, positive=False):
        where = f"{path}: [{section}] {key}"
        value = geometry._number(need(section, key), where)
        if positive:
            return geometry._positive(value, where)
        if not math.isfinite(value):
            raise InputError(f"{where} must be finite")
        return value

    def only(section, *keys):
        for key in parser.options(section):
            if key not in keys:
                raise InputError(f"{path}: [{section}] unknown key {key!r}")

    for section in parser.sections():
        if section not in ("geometry", "domain", "problem", "solver"):
            raise InputError(f"{path}: unknown section [{section}]")

    # geometry
    if not parser.has_section("geometry"):
        raise InputError(f"{path}: missing [geometry] section")
    if parser.has_option("geometry", "file"):
        chart = geometry.chart_from_file(parser.get("geometry", "file"))
    else:
        name = need("geometry", "builtin").strip().lower()
        params = {k: v for k, v in parser.items("geometry") if k != "builtin"}
        try:
            chart = geometry.make_builtin(name, params)
        except InputError as exc:
            raise InputError(f"{path}: [geometry] builtin={name}: {exc}") from None

    # domain
    shape = need("domain", "shape").strip().lower()
    if shape == "disk":
        center = [geometry._number(v, f"{path}: [domain] center")
                  for v in need("domain", "center").replace(",", " ").split()]
        if len(center) != 2 or not all(map(math.isfinite, center)):
            raise InputError(f"{path}: [domain] center needs two finite values")
        domain = gridmod.Disk(center=tuple(center),
                              radius=number("domain", "radius", positive=True))
        only("domain", "shape", "center", "radius", "h")
    elif shape == "rectangle":
        domain = gridmod.Rectangle(
            x0=number("domain", "x0"), y0=number("domain", "y0"),
            x1=number("domain", "x1"), y1=number("domain", "y1"),
        )
        only("domain", "shape", "x0", "y0", "x1", "y1", "h")
    else:
        raise InputError(f"{path}: [domain] shape must be disk or rectangle")
    h = number("domain", "h", positive=True)

    # problem
    H = _number_or_expression(need("problem", "H"), f"{path}: [problem] H")
    phi = _number_or_expression(need("problem", "phi"), f"{path}: [problem] phi")
    only("problem", "h", "phi")    # configparser lowercases keys: "h" is H
    spec = ProblemSpec(chart=chart, domain=domain, H=H, phi=phi)

    # solver overrides: newton_tol is the one key
    cfg = solver.SolveConfig()
    if parser.has_section("solver"):
        only("solver", "newton_tol")
        if parser.has_option("solver", "newton_tol"):
            cfg = solver.SolveConfig(newton_tol=number("solver", "newton_tol", positive=True))

    return RunConfig(h=h, spec=spec, solve_config=cfg, source=str(path))


def _build(run):
    grid = build_grid(run.spec.domain, run.h, run.spec.chart)
    # fail fast on non-finite problem data
    run.spec.H_nodes(grid)
    run.spec.phi_links(grid)
    return grid


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(config_path, out_dir="."):
    run = parse_config(config_path)
    grid = _build(run)
    os.makedirs(out_dir, exist_ok=True)
    try:
        u, report = solver.solve_dirichlet(run.spec, grid, run.solve_config)
    except ContinuationStalled as exc:
        _write_json(os.path.join(out_dir, "report.json"), exc.report.to_json_dict())
        print(f"continuation stalled at sigma = {exc.sigma:.6g} "
              f"(hypothesis slack {exc.report.hypothesis['slack_H']})")
        return 2
    write_field_csv(os.path.join(out_dir, "u.csv"), grid, u, name="u")
    _write_json(os.path.join(out_dir, "report.json"), report.to_json_dict())
    print(f"converged: residual_inf = {report.residual_final:.3e}, "
          f"sigma path {report.sigma_path}")
    return 0


def cmd_check(config_path):
    run = parse_config(config_path)
    grid = _build(run)
    verdict = analysis.hypothesis_check(run.spec, grid.boundary_geometry, grid=grid)
    print(f"sup|H|    = {verdict.sup_H:.6f}")
    print(f"inf_Hcyl  = {verdict.inf_Hcyl:.6f}")
    print(f"H_cyl > 0:              {'OK' if verdict.cyl_positive else 'FAIL'}")
    print(f"sup|H| <= inf H_cyl:    {'OK' if verdict.h_ok else 'FAIL'} "
          f"(slack {verdict.slack_H:.6f})")
    print(f"Ric lower bound:        {'OK' if verdict.ric_ok else 'FAIL'} "
          f"(ric_lower {verdict.ric_lower:.6f} vs -n inf^2 = "
          f"{-geometry.DIM * verdict.inf_Hcyl ** 2:.6f})")
    print(f"verdict: {'PASS' if verdict.passed else 'FAIL'}")
    return 0 if verdict.passed else 3


def cmd_verify(config_path, u_csv, out_dir="."):
    run = parse_config(config_path)
    grid = _build(run)
    u = read_field_csv(u_csv, grid)
    os.makedirs(out_dir, exist_ok=True)
    report = analysis.verify(run.spec, grid, u,
                             newton_tol=run.solve_config.newton_tol)
    _write_json(os.path.join(out_dir, "verify.json"), report.to_json_dict())
    for name, (nodes, margin) in report.margins.items():
        write_field_csv(os.path.join(out_dir, f"margin_{name}.csv"), grid, margin,
                        name="margin", nodes=nodes)
    for name, item in sorted(report.items.items()):
        status = "skip" if item.get("skipped") else ("pass" if item["passed"] else "FAIL")
        note = " (advisory)" if item.get("advisory") else ""
        print(f"{name:18s} {status}{note}")
    print(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 4


def cmd_geometries():
    print("built-in geometries:")
    print("  euclidean    flat base, f = 1, zero tilt")
    print("  heisenberg   flat base, f = 1, tilt (y/2, -x/2); ric_lower = -0.5")
    print("  warped       flat base, zero tilt, f = <expression> "
          "(params: f, ric_lower)")
    print("user charts: [geometry] file = <path> (see README for the format)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kgraph",
        description="prescribed mean curvature Killing graphs: solve, check, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the Dirichlet problem of a config")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=".", help="output directory")

    p_check = sub.add_parser("check", help="report the solvability hypotheses")
    p_check.add_argument("config")

    p_verify = sub.add_parser("verify", help="run all certificates on a solved field")
    p_verify.add_argument("config")
    p_verify.add_argument("u_csv")
    p_verify.add_argument("--out", default=".", help="output directory")

    sub.add_parser("geometries", help="list built-in geometries")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.out)
        if args.command == "check":
            return cmd_check(args.config)
        if args.command == "verify":
            return cmd_verify(args.config, args.u_csv, args.out)
        if args.command == "geometries":
            return cmd_geometries()
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except KGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
