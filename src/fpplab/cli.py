"""Command-line driver: sweep configuration, persistence, reporting.

Config files are line-oriented ``key = value`` with ``#`` comments and a
``name:param,param`` distribution mini-grammar; a sweep's flags are the same
config text and take the same path to a ``SweepConfig``.  Data CSVs are
byte-stable (shortest round-trip float format, no timestamps); timestamps
live only in the run manifest.  Exit codes: 0 success, 1 config error, 2
runtime failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

import numpy as np

from . import __version__
from .estimators import (
    WINDOW_MS,
    EstimatorSummary,
    ReplicaRecord,
    SweepConfig,
    by_n,
    fit_chi,
    run_sweep,
    summarize,
    worker_count,
)
from .ineqlab import CheckResult, fpp_exhaustive_check, run_randomized_suite
from .lattice import Box, Torus
from .lpp import fit_center
from .weights import Bernoulli, parse_spec


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config grammar
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(tok: str) -> bool:
    if tok.lower() not in _BOOL:
        raise ValueError(f"expected a boolean, got {tok!r}")
    return _BOOL[tok.lower()]


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


# Config key -> (parse, format), in SweepConfig field order.  Keys name their
# SweepConfig field, except ``dist``, which holds ``spec``.  Defaults come from
# SweepConfig alone; serialize_config writes every key in this order, and its
# bytes are hashed into config_digest.
_CONFIG = {
    "model": (str, str),
    "d": (int, str),
    "n_list": (
        lambda tok: tuple(int(t) for t in tok.split(",") if t.strip()),
        lambda n_list: ",".join(str(n) for n in n_list),
    ),
    "dist": (parse_spec, lambda spec: spec.serialize()),
    "replicas": (int, str),
    "seed": (int, str),
    "kappa": (float, repr),
    "bootstrap": (int, str),
    "threads": (int, str),
    "record_fn": (_parse_bool, _format_bool),
    "record_geometry": (_parse_bool, _format_bool),
    "max_grows": (int, str),
}


def _field(key: str) -> str:
    return "spec" if key == "dist" else key


_SWEEP_FIELDS = {f.name: f for f in fields(SweepConfig)}
_REQUIRED = tuple(key for key in _CONFIG if _SWEEP_FIELDS[_field(key)].default is MISSING)


def _config_entries(text: str) -> dict[str, str]:
    """Config key -> value text of a config file's ``key = value`` lines."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def _sweep_config(entries: dict[str, str]) -> SweepConfig:
    """The SweepConfig of config key -> value text, from a config file or from
    a sweep's flags: the one path from text to a config.  A missing required
    key, a value its ``_CONFIG`` parser rejects or a config SweepConfig
    rejects is a ConfigError."""
    missing = [key for key in _REQUIRED if key not in entries]
    if missing:
        raise ConfigError(f"missing required key {', '.join(map(repr, missing))}")
    values = {}
    for key, text in entries.items():
        try:
            values[_field(key)] = _CONFIG[key][0](text)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
    try:
        return SweepConfig(**values)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from None


def parse_config(text: str) -> SweepConfig:
    return _sweep_config(_config_entries(text))


def _read_input(path: str | Path) -> str:
    """The text of an input file named on the command line; a file that
    cannot be read, or is not text, is a config error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not text ({exc.reason})") from None


def serialize_config(cfg: SweepConfig) -> str:
    return "".join(
        f"{key} = {fmt(getattr(cfg, _field(key)))}\n" for key, (_, fmt) in _CONFIG.items()
    )


def config_digest(cfg: SweepConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Record persistence
# ---------------------------------------------------------------------------

# Records CSV header per model.  Every column is the ReplicaRecord field of the
# same name, except the win<m> columns, which hold win_counts[m].
_WIN_COLS = {f"win{m}": m for m in WINDOW_MS}
_COLUMNS = {
    "fpp-point": (
        "n", "replica", "T", "F_n", "g_dag_size", "g_int_size", "geo_len",
        "geo_diam", "transverse_dev", "Y_n", *_WIN_COLS, "window_grows", "flagged",
    ),
    "fpp-torus": ("n", "replica", "T", "g_dag_size", "g_int_size", "g_bitmap"),
    "lpp": ("n", "replica", "T"),
}
_FIELD_TYPES = get_type_hints(ReplicaRecord)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cell(rec: ReplicaRecord, col: str) -> str:
    if col in _WIN_COLS:
        return _fmt((rec.win_counts or {}).get(_WIN_COLS[col]))
    if col == "g_bitmap":
        return "" if rec.g_bitmap is None else np.packbits(rec.g_bitmap).tobytes().hex()
    return _fmt(getattr(rec, col))


def _cell_parser(field_type):
    """Inverse of ``_fmt`` for a scalar ReplicaRecord field of ``field_type``."""
    if field_type is bool:
        return "1".__eq__
    if field_type in (int, float):
        return field_type
    kind, _ = get_args(field_type)  # Optional[kind]: an empty cell is None
    return lambda tok: None if tok == "" else kind(tok)


def records_to_csv(model: str, records: Sequence[ReplicaRecord]) -> str:
    cols = _COLUMNS[model]
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(_cell(rec, col) for col in cols))
    return "\n".join(lines) + "\n"


def records_from_csv(model: str, text: str, n_edges: Optional[int] = None) -> list[ReplicaRecord]:
    lines = text.strip().splitlines() or [""]
    header = tuple(lines[0].split(","))
    if header != _COLUMNS[model]:
        raise ConfigError(f"unexpected CSV header for model {model}")
    parsers = {
        col: _cell_parser(_FIELD_TYPES[col])
        for col in header if col not in _WIN_COLS and col != "g_bitmap"
    }
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = dict(zip(header, line.split(",")))
        try:
            values = {col: parse(cells[col]) for col, parse in parsers.items()}
            if any(cells.get(col) for col in _WIN_COLS):
                values["win_counts"] = {m: int(cells[col]) for col, m in _WIN_COLS.items()}
            if cells.get("g_bitmap"):
                raw = bytes.fromhex(cells["g_bitmap"])
                bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
                values["g_bitmap"] = (bits[:n_edges] if n_edges else bits).astype(bool)
        except (KeyError, ValueError) as exc:  # a missing or unparsable cell
            raise ConfigError(f"line {lineno} of the {model} records: {exc!r}") from None
        out.append(ReplicaRecord(**values))
    return out


@dataclass
class ResultStore:
    """Directory layout: one records CSV per (model, n), summary and manifest JSON."""

    root: Path

    def __post_init__(self):
        self.root = Path(self.root)

    def records_path(self, model: str, n: int) -> Path:
        return self.root / f"records_{model}_n{n}.csv"

    def _write(self, path: Path, text: str) -> Path:
        """Write one store file, making the store's directory on first write."""
        self.root.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def write_records(self, model: str, records: Sequence[ReplicaRecord]) -> list[Path]:
        return [
            self._write(self.records_path(model, n), records_to_csv(model, recs))
            for n, recs in by_n(records).items()
        ]

    def read_records(self, model: str, n_list: Sequence[int], d: int = 2) -> list[ReplicaRecord]:
        out = []
        for n in n_list:
            n_edges = Torus(n, d).n_edges() if model == "fpp-torus" else None
            text = _read_input(self.records_path(model, n))
            out.extend(records_from_csv(model, text, n_edges))
        return out

    def write_summary(self, summary: dict) -> Path:
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        return self._write(self.root / "summary.json", text)

    def write_manifest(self, manifest: dict) -> Path:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        return self._write(self.root / "manifest.json", text)

    def read_manifest(self) -> dict:
        """The run manifest; a store without one, or with one that is not a
        JSON object holding its ``config_text``, is a config error."""
        path = self.root / "manifest.json"
        try:
            manifest = json.loads(_read_input(path))
        except ValueError as exc:
            raise ConfigError(f"{path} is not JSON: {exc}") from None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config_text"), str):
            raise ConfigError(f"{path} holds no config_text")
        return manifest

    def write_plot_manifest(self, lines: Sequence[str]) -> Path:
        body = "# csv_path,x_column,y_column,scale,reference_curve\n"
        return self._write(self.root / "plots.manifest", body + "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Summary building
# ---------------------------------------------------------------------------


def _summary_dict(s: EstimatorSummary) -> dict:
    return {**asdict(s), "mean_ci_half": s.mean_ci_half, "var_ci_half": s.var_ci_half}


def build_summary(cfg: SweepConfig, records: Sequence[ReplicaRecord]) -> dict:
    """Reduce a record stream to the summary JSON structure; every reported
    statistic of a sweep is computed here.

    One pass over the sizes fills each size's ``per_n`` entry and its rows of
    ``influence`` (torus), ``window_ratios`` and ``min_speed`` (point
    geometry) and ``fn_comparison`` (records with F_n).  The cross-size
    sections read the T summaries that pass holds: the chi fit and the
    ``sublinearity`` table over the sizes with Var T > 0, the LPP center fit,
    and the F_n growth trend, given when two or more sizes have F_n.  The
    sublinearity entries are flags, never assertions, as the comparison
    constants are existential.  Pure function of (config, records):
    regenerating from the stored CSVs reproduces the summary byte for byte.
    """
    per_n, t_summaries, fn_rows = {}, {}, []
    influence, window_ratios, min_speed = {}, {}, {}
    for n, recs in by_n(records).items():
        t_summaries[n] = summarize([r.T for r in recs], cfg.bootstrap)
        entry = {"T": _summary_dict(t_summaries[n])}
        fs = [r.F_n for r in recs if r.F_n is not None]
        if fs:
            entry["F_n"] = _summary_dict(summarize(fs, cfg.bootstrap))
            # Var T over the same records as Var F_n
            vt = float(np.var([r.T for r in recs if r.F_n is not None], ddof=1))
            vf = float(np.var(fs, ddof=1))
            diff = abs(vt - vf)
            fn_rows.append({"n": n, "var_T": vt, "var_F": vf, "abs_diff": diff,
                            "diff_over_n34": diff / n**0.75})
        gs = [r.g_int_size for r in recs if r.g_int_size is not None]
        if gs:
            entry["mean_g_int"] = float(np.mean(gs))
            entry["mean_g_int_over_n"] = float(np.mean(gs)) / n
        gd = [r.g_dag_size for r in recs if r.g_dag_size is not None]
        if gd:
            entry["mean_g_dag"] = float(np.mean(gd))
        ys = [r.Y_n for r in recs if r.Y_n is not None]
        if ys:
            entry["mean_Y"] = float(np.mean(ys))
        grows = [r.window_grows for r in recs]
        entry["mean_window_grows"] = float(np.mean(grows))
        entry["flagged"] = int(sum(r.flagged for r in recs))
        per_n[str(n)] = entry
        if cfg.model == "fpp-torus":
            # imported here, not at module level: only torus summaries need
            # it, and it would add to every sweep's start-up.  chdtrc is the
            # chi-square survival function itself: scipy.stats.chi2.sf calls
            # it, and importing scipy.stats would double start-up
            from scipy.special import chdtrc

            bitmaps = [r.g_bitmap for r in recs if r.g_bitmap is not None]
            if not bitmaps:  # a store whose records CSV lost its bitmaps
                raise ValueError(f"no membership bitmaps recorded at n={n}")
            counts = np.sum(bitmaps, axis=0).astype(np.float64)
            pvalues = {}
            for axis in range(cfg.d):
                c = counts[axis::cfg.d]
                expected = c.mean()
                if expected == 0:
                    pvalues[str(axis)] = 1.0
                    continue
                stat = float(np.sum((c - expected) ** 2 / expected))
                pvalues[str(axis)] = float(chdtrc(c.size - 1, stat))
            influence[str(n)] = {
                "axis_pvalues": pvalues,
                "max_frequency": float((counts / len(bitmaps)).max()),
                "mean_g_size": float(counts.sum() / len(bitmaps)),
            }
        # mean over replicas of max_z #(geodesic edges in z + B_m) / diam(B_m)
        wins = [r.win_counts for r in recs if r.win_counts is not None]
        if wins:
            window_ratios[str(n)] = {
                str(m): float(np.mean([w[m] / (2.0 * m) for w in wins])) for m in WINDOW_MS
            }
        # the empirical lower envelope of T per geodesic edge
        speeds = [r.T / r.geo_len for r in recs if r.geo_len]
        if speeds:
            min_speed[str(n)] = float(min(speeds))

    out = {
        "schema": "fpplab-summary-v1",
        "tool": "fpplab",
        "model": cfg.model,
        "d": cfg.d,
        "dist": cfg.spec.serialize(),
        "n_list": list(cfg.n_list),
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "config_digest": config_digest(cfg),
        "per_n": per_n,
    }
    means = {n: s.mean for n, s in t_summaries.items()}
    positive = [(n, s) for n, s in t_summaries.items() if s.variance > 0]
    fits = {}
    if len(positive) >= 3:
        fits["chi"] = asdict(fit_chi([(n, s.variance) for n, s in positive], means))
        # Var/n is nonincreasing up to CI overlap unless some size has a
        # larger Var/n and a CI wholly above its predecessor's
        scaled = [(s.var_ci[0] / n, s.var_ci[1] / n, s.variance / n) for n, s in positive]
        out["sublinearity"] = {
            "rows": [
                {"n": n, "var": s.variance, "var_over_n": s.variance / n,
                 "var_logn_over_n": s.variance * math.log(n) / n}
                for n, s in positive
            ],
            "var_over_n_nonincreasing": not any(
                b[2] > a[2] and b[0] > a[1] for a, b in zip(scaled, scaled[1:])
            ),
            # the largest c with Var >= c log n across the grid
            "log_lower_c": min(s.variance / math.log(n) for n, s in positive if n > 1),
        }
    if cfg.model == "lpp" and len(means) >= 2:
        fits["center"] = fit_center(means)
    if fits:
        out["fits"] = fits
    if cfg.model == "fpp-torus":
        out["influence"] = influence
    if len(fn_rows) >= 2:
        ratios = [row["diff_over_n34"] for row in fn_rows]
        out["fn_comparison"] = {
            "rows": fn_rows,
            "growth_trend": all(b > a for a, b in zip(ratios, ratios[1:])),
        }
    if window_ratios:
        out["window_ratios"] = window_ratios
    if min_speed:
        out["min_speed"] = min_speed
    return out


def plot_manifest_lines(cfg: SweepConfig, store: ResultStore) -> list[str]:
    lines = []
    for n in cfg.n_list:
        path = store.records_path(cfg.model, n).name
        lines.append(f"{path},replica,T,linear,")
    if len(cfg.n_list) >= 2:
        lines.append("summary.json,n,per_n.*.T.variance,loglog,c*n**(2/3)")
        lines.append("summary.json,n,per_n.*.T.variance,loglog,c*n")
        lines.append("summary.json,n,per_n.*.T.variance,loglog,c*n/log(n)")
    return lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    """Run the sweep of one model subcommand and write its result store.

    The config file's lines, or else the sweep flags, are config text, and
    one path turns either into the SweepConfig; ``--threads`` stays outside
    the config, so it moves no ``config_digest``."""
    if args.config:
        entries = _config_entries(_read_input(args.config))
    else:
        flags = ((key, getattr(args, key)) for key, _ in _SWEEP_FLAGS.values())
        entries = {"model": args.model, **{key: text for key, text in flags if text is not None}}
    if args.record_fn:
        entries["record_fn"] = "true"
    cfg = _sweep_config(entries)
    if cfg.model != args.model:
        raise ConfigError(
            f"config file model {cfg.model!r} does not match subcommand {args.model!r}"
        )
    try:
        threads = worker_count(cfg, args.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    store = ResultStore(Path(args.out))
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    records = run_sweep(cfg, threads=threads)
    paths = store.write_records(cfg.model, records)
    summary = build_summary(cfg, records)
    sp = store.write_summary(summary)
    pm = store.write_plot_manifest(plot_manifest_lines(cfg, store))
    finished = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    counts = {n: entry["T"]["count"] for n, entry in summary["per_n"].items()}
    store.write_manifest(
        {
            "config_digest": config_digest(cfg),
            "config_text": serialize_config(cfg),
            "master_seed": cfg.seed,
            "tool_version": __version__,
            "started_at": started,
            "finished_at": finished,
            "record_counts": counts,
            "files": sorted(p.name for p in [*paths, sp, pm]),
        }
    )
    print(f"wrote {len(records)} records to {store.root}")
    return 0


def cmd_fit_chi(args) -> int:
    try:
        data = json.loads(_read_input(args.input))
        if "pairs" in data:
            pairs = [(int(n), float(v)) for n, v in data["pairs"]]
        elif "per_n" in data:
            pairs = [
                (int(n), float(entry["T"]["variance"])) for n, entry in data["per_n"].items()
            ]
        else:
            raise ConfigError("input JSON needs 'pairs' or 'per_n'")
    except (ValueError, TypeError, KeyError) as exc:  # not JSON, or not (n, Var) pairs
        raise ConfigError(f"{args.input} holds no (n, Var) pairs: {exc!r}") from None
    try:
        fit = fit_chi(sorted(pairs))
    except ValueError as exc:  # fewer than 3 pairs, one size n, or a variance <= 0
        raise ConfigError(str(exc)) from None
    print(f"chi_hat = {fit.chi_hat:.6f}")
    print(f"chi_stderr = {fit.chi_stderr:.6f}")
    return 0


def cmd_ineq_verify(args) -> int:
    checks = None if args.suite == "all" else tuple(args.suite.split(","))
    try:
        reports = run_randomized_suite(args.seed, instances=args.instances, checks=checks)
    except ValueError as exc:  # an unknown check name or instances < 1
        raise ConfigError(str(exc)) from None
    payload = [r.to_json() for r in reports]
    exhaustive_ok = True
    if args.suite == "all":
        for box, dst in ((Box((0, 0), (1, 1)), (1, 1)), (Box((0, 0), (2, 1)), (2, 1))):
            res = fpp_exhaustive_check(box, Bernoulli(1, 2, 0.5), (0, 0), dst)
            exhaustive_ok &= res.holds
            name = f"fpp_exhaustive_{res.n_edges}_edges"
            payload.append(CheckResult(name, res.var_T, res.es_bound, res.holds).to_json())
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    violations = sum(r.violations for r in reports)
    if violations or not exhaustive_ok:
        print(f"VERIFICATION FAILURE: {violations} violations", file=sys.stderr)
        return 3
    return 0


def cmd_report(args) -> int:
    store = ResultStore(Path(args.store))
    manifest = store.read_manifest()
    cfg = parse_config(manifest["config_text"])
    records = store.read_records(cfg.model, cfg.n_list, cfg.d)
    summary = build_summary(cfg, records)
    store.write_summary(summary)
    store.write_plot_manifest(plot_manifest_lines(cfg, store))
    print(f"regenerated summary for {store.root}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# (command, help, subcommand, help, model, record_fn): the sweep subcommands,
# all run by cmd_sweep; record_fn = True forces F_n recording.
_SWEEPS = (
    ("fpp", "point-to-point passage sweeps", "run", "passage-time sweep", "fpp-point", False),
    ("fpp", "point-to-point passage sweeps", "fn", "sweep recording the ball-averaged time",
     "fpp-point", True),
    ("torus", "torus winding-geodesic sweeps", "influence", "edge influence map sweep",
     "fpp-torus", False),
    ("lpp", "last-passage sweeps", "run", "last-passage sweep", "lpp", False),
)


# Sweep flag -> (config key, help).  A flag's value is the text of its config
# key and parses through that key's _CONFIG parser, as a config file line does.
_SWEEP_FLAGS = {
    "--d": ("d", "lattice dimension"),
    "--dist": ("dist", "distribution, e.g. uniform:0,1"),
    "--n": ("n_list", "comma-separated sizes, e.g. 16,32,64"),
    "--replicas": ("replicas", None),
    "--seed": ("seed", None),
    "--kappa": ("kappa", "first window half-width, in units of n^(2/3)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpplab",
        description="First/last-passage percolation simulation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    groups = {}
    for command, command_help, subcommand, subcommand_help, model, record_fn in _SWEEPS:
        if command not in groups:
            group = sub.add_parser(command, help=command_help)
            groups[command] = group.add_subparsers(dest="subcommand", required=True)
        p = groups[command].add_parser(subcommand, help=subcommand_help)
        p.add_argument("--config", help="config file (overrides individual flags)")
        for flag, (key, flag_help) in _SWEEP_FLAGS.items():
            p.add_argument(flag, dest=key, help=flag_help)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=cmd_sweep, model=model, record_fn=record_fn)

    fit = sub.add_parser("fit", help="exponent fits")
    fit_sub = fit.add_subparsers(dest="subcommand", required=True)
    chi = fit_sub.add_parser("chi", help="fit the variance scaling exponent")
    chi.add_argument("--input", required=True, help="summary JSON or {'pairs': ...}")
    chi.set_defaults(func=cmd_fit_chi)

    ineq = sub.add_parser("ineq", help="inequality verification")
    ineq_sub = ineq.add_subparsers(dest="subcommand", required=True)
    verify = ineq_sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--suite", default="all")
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--instances", type=int, default=10_000)
    verify.add_argument("--out", help="JSON output path (default stdout)")
    verify.set_defaults(func=cmd_ineq_verify)

    rep = sub.add_parser("report", help="regenerate summary from stored records")
    rep.add_argument("--store", required=True)
    rep.set_defaults(func=cmd_report)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call: each
    ``parse_args`` starts from a fresh namespace, so reuse carries nothing
    from one call to the next."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; map usage problems to the config-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
