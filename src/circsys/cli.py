"""Batch front end for the construction pipeline.

Machine-first: every subcommand emits one JSON document (CSV on request
for tabular data) carrying an inline run manifest: the command, the
sha256 of each input file, the plan hash, the seed and --out.  There are
no timestamps or hostnames, so rerunning one argv gives the same bytes.
No other flag is recorded yet (--level, --style, --gate, --j-tolerance,
--depth, the words of dbar and parse, rotation's --beta, --n and --m,
among others), so equal manifests can carry different reports.
Recording them moves every pinned benchmark digest and waits for a
change that re-records those pins.  The reduce result cache
($CIRCSYS_CACHE) is keyed by the manifest digest plus --depth.

Exit codes: 0 success, 2 verification failure (reports still emitted),
3 input error (malformed files, bad flags, unusable parameters).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import click

from . import __version__
from .coefficients import (PlanError, audit_plan, code_coefficients,
                           desk_plan, extend_plan, plan_from_json,
                           plan_to_json, plan_to_obj)
from .words import WordIndexError, dbar, word
from .circular import CircularParseError, parse_circular
from .systems import SequenceError, sequence_to_json
from .codes import apply_code, natural_code
from .rotation import build_red_zones, delta_csv, rotation_report_json
from .specbuild import (BuildError, ToleranceProfile, build_attempt,
                        build_words, check_specs, check_timing,
                        gamma_cascade, groups_from_tree, lift_build)
from .trees import (TreeError, certify_continuity, realization_handoff,
                    reduce as tree_reduce, tree_from_json)

CACHE_ENV = "CIRCSYS_CACHE"
ANCHOR_CAP = 1 << 24      # largest tower enumerated position by position


# ---------------------------------------------------------------------------
# manifest plumbing

@dataclass(frozen=True)
class RunManifest:
    command: str
    input_hashes: dict
    plan_hash: str | None
    seed: int | None
    tool_version: str
    outputs: tuple

    def digest(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(path: str) -> str:
    """Text of one input file, whose sha256 goes into the run manifest; a
    missing file is an input error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc}")
    click.get_current_context().obj["inputs"][path] = _hash_bytes(data)
    return data.decode()


def _manifest(ctx, plan=None, seed=None) -> RunManifest:
    plan_hash = None if plan is None else \
        _hash_bytes(plan_to_json(plan).encode())
    return RunManifest(ctx.command.name,
                       dict(sorted(ctx.obj["inputs"].items())), plan_hash,
                       seed, __version__, (ctx.obj.get("out") or "-",))


def _emit(ctx, payload: dict, plan=None, seed=None) -> str:
    """Write the report under its run manifest; returns its text."""
    man = _manifest(ctx, plan, seed)
    doc = {"manifest": asdict(man) | {"digest": man.digest()}} | payload
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write(ctx, text)
    return text


def _write(ctx, text: str) -> None:
    out = ctx.obj.get("out")
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# shared parsers

def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.ClickException(f"not a fraction: {text!r}")


def _parse_kl(text: str) -> tuple:
    """"64,4;2,2" -> ((64, 4), (2, 2))."""
    try:
        pairs = tuple(tuple(int(x) for x in part.split(","))
                      for part in text.split(";"))
    except ValueError:
        raise click.ClickException(f"bad --kl value: {text!r}")
    if any(len(p) != 2 for p in pairs):
        raise click.ClickException("--kl wants k,l pairs joined by ';'")
    return pairs


def _load_plan(plan_path, kl, eps, stages, desk=True):
    """Plan from a file, or a desk plan from --kl/--eps that records the
    --desk/--floor growth policy; --stages N grows it by its own policy to
    depth N.  A flag the loader cannot honour is an input error."""
    if plan_path is not None:
        if kl or eps or not desk:
            raise click.ClickException("--kl, --eps and --floor make a plan; "
                                       "a --plan file records its own")
        text = _read_input(plan_path)
        try:
            plan = plan_from_json(text)
        except (KeyError, PlanError, TypeError, ValueError) as exc:
            raise click.ClickException(f"bad plan file {plan_path}: {exc}")
    else:
        kl = _parse_kl(kl or "2,2;2,2")
        if eps and len(eps) != len(kl):
            raise click.ClickException("--eps wants one value per --kl stage")
        kw = {"eps_lunate": tuple(map(_parse_fraction, eps))} if eps else {}
        plan = replace(desk_plan(kl=kl, **kw), desk_mode=desk)
    if stages is not None:
        if stages < plan.depth:
            raise click.ClickException(
                f"--stages {stages} is below the plan depth {plan.depth}")
        while plan.depth < stages:
            plan = extend_plan(plan)
    return plan


def _load_tree(path):
    text = _read_input(path)
    try:
        return tree_from_json(text)
    except (KeyError, TreeError, TypeError, ValueError) as exc:
        raise click.ClickException(f"bad tree file {path}: {exc}")


def _report_obj(report) -> list:
    return json.loads(report.to_json())


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# command group

@click.group(name="circsys")
@click.option("--out", default=None, metavar="PATH",
              help="Write the report here instead of stdout.")
@click.pass_context
def cli(ctx, out):
    """Staged circular constructions: plans, builds, checks, reductions."""
    ctx.obj = {"out": out, "inputs": {}}


_plan_opts = [
    click.option("--plan", "plan_path", default=None, metavar="FILE",
                 help="Plan JSON; omit for a desk plan from --kl."),
    click.option("--kl", help="Desk plan stages as k,l pairs joined by "
                              "';' (default 2,2;2,2)."),
    click.option("--eps", multiple=True, metavar="FRAC",
                 help="Per-stage separation tolerances for the desk plan."),
]


_stages_opt = click.option(
    "--stages", default=None, type=int,
    help="Grow the plan by its own policy to this many stages.")


def _with(opts):
    def deco(f):
        for opt in reversed(opts):
            f = opt(f)
        return f
    return deco


@cli.command("plan")
@_with(_plan_opts)
@click.option("--desk/--floor", "desk", default=True,
              help="Growth policy of a plan made from --kl.")
@_stages_opt
@click.option("--audit/--no-audit", default=True, show_default=True)
@click.pass_context
def plan_cmd(ctx, plan_path, kl, eps, desk, stages, audit):
    """Emit a coefficient plan, grown on request, with its audit."""
    plan = _load_plan(plan_path, kl, eps, stages, desk)
    payload = {"plan": plan_to_obj(plan)}
    if audit:
        rep = audit_plan(plan)
        payload["audit"] = _report_obj(rep)
        payload["audit_ok"] = rep.ok()
    _emit(ctx, payload, plan)
    return 0


_build_opts = _plan_opts + [
    click.option("--tree", "tree_path", default=None, metavar="FILE",
                 help="Tree-prefix JSON supplying the group scaffold."),
    click.option("--seed", default=0, show_default=True),
    click.option("--level", default=1, show_default=True,
                 help="Stages of words to construct."),
    click.option("--style", default="random", show_default=True,
                 type=click.Choice(["random", "separated"])),
]


def _load_build(plan_path, kl, eps, tree_path, level):
    """The plan and group scaffold a build-family command runs on; without
    --tree, the scaffold of the tree {(), (0,)}."""
    plan = _load_plan(plan_path, kl, eps, None)
    nodes = [(), (0,)] if tree_path is None else \
        _load_tree(tree_path).members_in_order()
    if level > plan.depth:
        raise click.ClickException(
            f"--level {level} exceeds the plan depth {plan.depth}")
    return plan, groups_from_tree(nodes)


def _gated_build(sc, plan, seed, level, style):
    """build_words' build and report; when its retry budget runs out, no
    build and the report of its best attempt."""
    try:
        built = build_words(sc, plan, seed=seed, level=level, style=style)
    except BuildError as exc:
        if exc.report is None:
            raise
        return None, exc.report
    return built, built.report


def _emit_checked(ctx, plan, seed, report, built=None, **payload):
    """A build-family report: the battery's verdict and, for a build, its
    sequence and output hash; exit 2 when a check failed."""
    if built is not None:
        payload["sequence"] = json.loads(sequence_to_json(built.seq))
        payload["output_hash"] = _hash_bytes(
            json.dumps(payload["sequence"], sort_keys=True).encode())
    payload.update(report=_report_obj(report), ok=report.ok())
    _emit(ctx, payload, plan, seed)
    return 0 if report.ok() else 2


@cli.command("build")
@_with(_build_opts)
@click.option("--gate/--no-gate", default=True, show_default=True,
              help="Retry until the verification report passes; without "
                   "the gate, check one attempt.")
@click.pass_context
def build_cmd(ctx, plan_path, kl, eps, tree_path, seed, level, style, gate):
    """Construct stage words against the verification gate."""
    plan, sc = _load_build(plan_path, kl, eps, tree_path, level)
    if gate:
        built, report = _gated_build(sc, plan, seed, level, style)
    else:
        built = build_attempt(sc, plan, seed, level, style)
        report = check_specs(built)
    return _emit_checked(ctx, plan, seed, report, built)


@cli.command("lift")
@_with(_build_opts)
@click.pass_context
def lift_cmd(ctx, plan_path, kl, eps, tree_path, seed, level, style):
    """Build, then carry the odometer sequence to its circular image."""
    plan, sc = _load_build(plan_path, kl, eps, tree_path, level)
    built, report = _gated_build(sc, plan, seed, level, style)
    return _emit_checked(ctx, plan, seed, report,
                         built and lift_build(built))


@cli.command("check-specs")
@_with(_build_opts)
@click.option("--j-tolerance", default=None, metavar="FRAC",
              help="Counting-estimate tolerance, every stage.")
@click.pass_context
def check_specs_cmd(ctx, plan_path, kl, eps, tree_path, seed, level, style,
                    j_tolerance):
    """Run the word-spec battery on one unchecked build attempt."""
    plan, sc = _load_build(plan_path, kl, eps, tree_path, level)
    tol = None if j_tolerance is None else \
        ToleranceProfile(j_family=_parse_fraction(j_tolerance))
    report = check_specs(build_attempt(sc, plan, seed, level, style), tol)
    return _emit_checked(ctx, plan, seed, report,
                         failures=[e.spec_id for e in report.failures()])


@cli.command("check-timing")
@_with(_build_opts)
@click.pass_context
def check_timing_cmd(ctx, plan_path, kl, eps, tree_path, seed, level, style):
    """Run the timing battery and cascade bounds on one unchecked attempt."""
    plan, sc = _load_build(plan_path, kl, eps, tree_path, level)
    gc = gamma_cascade(plan, level)
    report = check_timing(build_attempt(sc, plan, seed, level, style), level,
                          gamma=gc)
    return _emit_checked(
        ctx, plan, seed, report,
        gamma=[_frac_str(gc.gamma(n)) for n in range(1, level + 1)])


@cli.command("dbar")
@click.option("--u", "u_text", required=True, metavar="TEXT")
@click.option("--v", "v_text", required=True, metavar="TEXT")
@click.option("--a", default=None, type=int, help="Interval start.")
@click.option("--b", default=None, type=int, help="Interval end.")
@click.option("--mode", default="auto", show_default=True,
              type=click.Choice(["auto", "exact", "estimate"]))
@click.option("--seed", default=0, show_default=True)
@click.option("--samples", default=4096, show_default=True)
@click.pass_context
def dbar_cmd(ctx, u_text, v_text, a, b, mode, seed, samples):
    """Disagreement density between two words over one interval."""
    interval = None if a is None and b is None else \
        (a or 0, b if b is not None else min(len(u_text), len(v_text)))
    res = dbar(word(u_text), word(v_text), interval,
               mode=mode, seed=seed, samples=samples)
    payload = {
        "kind": res.kind,
        "value": _frac_str(res.value),
        "value_float": float(res.value),
        "interval": list(res.interval),
    }
    if res.kind == "estimate":
        payload["half_width"] = _frac_str(res.half_width)
        payload["confidence"] = _frac_str(res.confidence)
        payload["samples"] = res.samples
    _emit(ctx, payload, seed=seed)
    return 0


@cli.command("parse")
@click.option("--text", required=True, metavar="WORD")
@click.option("--k", required=True, type=int)
@click.option("--l", required=True, type=int)
@click.option("--p", required=True, type=int)
@click.option("--q", required=True, type=int)
@click.pass_context
def parse_cmd(ctx, text, k, l, p, q):
    """Invert the circular interleaving of one stage, or diagnose."""
    try:
        dec = parse_circular(word(text), (k, l, p, q))
    except CircularParseError as exc:
        _emit(ctx, {"ok": False, "position": exc.position,
                    "expected": exc.expected, "found": exc.found,
                    "detail": str(exc)})
        return 2
    payload = {
        "ok": True, "k": k, "l": l, "p": p, "q": q,
        "preword": [w.materialize() for w in dec.preword],
        "j": list(dec.j),
        "boundary_fraction": _frac_str(dec.boundary_fraction),
    }
    _emit(ctx, payload)
    return 0


@cli.command("rotation")
@_with(_plan_opts)
@_stages_opt
@click.option("--beta", required=True, metavar="FRAC",
              help="Rotation number, a rational in [0, 1).")
@click.option("--n", "n_stages", default=2, show_default=True,
              help="Displacement rows to report.")
@click.option("--m", "anchor", default=None, type=int,
              help="Anchor stage; defaults to the plan depth.")
@click.option("--csv", "as_csv", is_flag=True,
              help="Displacement table as CSV instead of JSON.")
@click.option("--zones-delta", default=None, metavar="FRAC",
              help="Also build red zones to this uncovered density.")
@click.pass_context
def rotation_cmd(ctx, plan_path, kl, eps, stages, beta, n_stages, anchor,
                 as_csv, zones_delta):
    """Displacement, lane counts, and optional red-zone construction."""
    plan = _load_plan(plan_path, kl, eps, stages)
    b = _parse_fraction(beta)
    # q_m exists one stage past the last (k, l) pair
    m = anchor if anchor is not None else plan.depth
    if not 0 <= n_stages < m <= plan.depth:
        raise click.ClickException(
            f"need 0 <= --n < --m <= {plan.depth}")
    if plan.q(m) > ANCHOR_CAP:
        raise click.ClickException(
            f"anchor tower q_{m} = {plan.q(m)} exceeds the exact-counting "
            f"cap {ANCHOR_CAP}; pick a smaller --m")
    if as_csv:
        _write(ctx, delta_csv(plan, b, n_stages, m))
        return 0
    payload = json.loads(rotation_report_json(plan, b, n_stages, m))
    if zones_delta is not None:
        rz = build_red_zones(b, plan, m, _parse_fraction(zones_delta))
        payload["red_zones"] = {
            "anchor": rz.anchor,
            "target_density": _frac_str(rz.target_density),
            "achieved_density": _frac_str(rz.achieved_density),
            "shortfall": rz.shortfall,
            "layers": [{"stage": ly.stage, "block_size": ly.block_size,
                        "blocks": list(ly.blocks), "j0": ly.j0, "t": ly.t}
                       for ly in rz.layers],
        }
    _emit(ctx, payload, plan)
    return 0


@cli.command("natural-map")
@_with(_plan_opts)
@_stages_opt
@click.option("--n", "stage_n", default=1, show_default=True,
              help="Approximation stage of the reversing code.")
@click.option("--text", default=None, metavar="WORD",
              help="Also apply the code to this window.")
@click.pass_context
def natural_map_cmd(ctx, plan_path, kl, eps, stages, stage_n, text):
    """Stage-n approximant of the reversing isomorphism."""
    plan = _load_plan(plan_path, kl, eps, stages)
    if not 0 <= stage_n <= plan.depth - 1:
        raise click.ClickException(
            f"--n must lie in [0, {plan.depth - 1}]")
    code = natural_code(plan, stage_n)
    payload = {
        "name": code.name,
        "radius": code.radius,
        "coefficients": code_coefficients(plan, stage_n),
    }
    if text is not None:
        if len(text) <= 2 * code.radius:
            raise click.ClickException(
                f"window shorter than the code diameter {2 * code.radius + 1}")
        payload["image"] = apply_code(code, text).text
    _emit(ctx, payload, plan)
    return 0


_tree_opts = _plan_opts + [
    click.option("--tree", "tree_path", required=True, metavar="FILE"),
    click.option("--depth", "n0", required=True, type=int),
    click.option("--seed", default=0, show_default=True),
]


@cli.command("reduce")
@_with(_tree_opts)
@click.pass_context
def reduce_cmd(ctx, plan_path, kl, eps, tree_path, n0, seed):
    """Reduce a tree prefix to a hashed construction-sequence output."""
    plan = _load_plan(plan_path, kl, eps, None)
    tp = _load_tree(tree_path)
    # the manifest does not record --depth, so the cache key adds it
    key = f"{_manifest(ctx, plan, seed).digest()}-depth{n0}"
    cached = _cache_load(key)
    if cached is not None:
        _write(ctx, cached)
        return 0
    res = tree_reduce(tp, n0, plan, seed)
    payload = {
        "output_hash": res.output_hash,
        "plan_hash": res.plan_hash,
        "seed": res.seed,
        "depth": res.depth,
        "consumed": list(res.consumed),
        "exhausted": res.exhausted,
        "handoff": realization_handoff(res),
    }
    _cache_store(key, _emit(ctx, payload, plan, seed))
    return 0


@cli.command("continuity")
@_with(_tree_opts)
@click.pass_context
def continuity_cmd(ctx, plan_path, kl, eps, tree_path, n0, seed):
    """Certify, by mutation diffing, how much tree the reduction read."""
    plan = _load_plan(plan_path, kl, eps, None)
    cert = certify_continuity(_load_tree(tree_path), n0, plan, seed)
    payload = {
        "bound": cert.bound,
        "base_hash": cert.base_hash,
        "above_index": cert.above_index,
        "above_hash": cert.above_hash,
        "unaffected_above": cert.unaffected,
        "consumed_index": cert.consumed_index,
        "consumed_hash": cert.consumed_hash,
        "affected_at_consumed": cert.affected,
        "ok": cert.unaffected,
    }
    _emit(ctx, payload, plan, seed)
    return 0 if cert.unaffected else 2


# ---------------------------------------------------------------------------
# cache

def _cache_path(key: str):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, key + ".json")


def _cache_load(key: str):
    """The cached report, or None on a miss; an entry that cannot be read
    or is not JSON (say, left truncated by a killed writer) is a miss."""
    path = _cache_path(key)
    if not path:
        return None
    try:
        with open(path) as fh:
            text = fh.read()
        json.loads(text)
    except (OSError, ValueError):
        return None
    return text


def _cache_store(key: str, text: str) -> None:
    """Write the entry to a temporary file in the cache directory, then
    rename it into place, so readers see the whole entry or none."""
    path = _cache_path(key)
    if not path:
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# entry point

def run(argv=None) -> int:
    """Dispatch one invocation and map exceptions to exit codes."""
    try:
        rc = cli.main(args=argv, standalone_mode=False)
        return int(rc) if isinstance(rc, int) else 0
    except click.exceptions.Exit as exc:
        return 0 if exc.exit_code == 0 else 3
    except click.ClickException as exc:
        exc.show()
        return 3
    except (BuildError, PlanError, SequenceError, TreeError, WordIndexError,
            json.JSONDecodeError, ValueError) as exc:
        click.echo(f"Error: {exc}", err=True)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
