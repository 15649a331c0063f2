"""Command-line workflows tying the library together.

Subcommands:
  analyze   - complexity metrics + difficulty scores for a motion directory
  actuator  - inspect an actuator's envelope/friction at a query point or sweep
  train     - DAgger-distill a flow policy from auto-constructed experts
  eval      - closed-loop tracking metrics for a trained policy
  refine    - evolution-strategy residual refinement in aggressive mode

Every subcommand is deterministic given --seed (default 0; wall-clock entropy
is never used). Exit codes: 0 success, 1 usage/config error, 2 runtime
failure. Numeric output uses 6 significant digits so reports diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import actuation, distill, flow, metrics
from .env import DEFAULT_ENV_CONFIG, ArmEnv, ExpertPolicy, load_env_config
from .errors import ConfigError
from .fileio import check_like, config_section, overlay, read_config, require, write_atomic
from .motion import load_motion


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _round6(x: float) -> float:
    return float(f"{x:.6g}")


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _motion_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        return [os.path.join(path, n) for n in names]
    raise ConfigError(f"motion path '{path}' is neither a file nor a directory")


def _slot(node, part: str, key: str):
    """The dict key or list index `part` of the --set path `key` names in `node`."""
    if isinstance(node, dict) and part in node:
        return part
    if isinstance(node, list) and part.isdecimal() and int(part) < len(node):
        return int(part)
    raise ConfigError(f"--set: unknown config path '{key}' (no entry '{part}')")


def _apply_sets(tree: dict, assignments: list[str]) -> dict:
    """The config tree with the --set dot.path=value overrides put in place,
    each by `fileio.overlay` (an object is merged into the object there), and
    then typed once against the defaults of its sections (`SECTIONS`): a value
    takes its default's type even where an earlier --set emptied a list."""
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got '{item}'")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = tree
        *parents, leaf = key.split(".")
        for part in parents:
            node = node[_slot(node, part, key)]
        slot = _slot(node, leaf, key)
        node[slot] = overlay(node[slot], value)
    return check_like(tree, {name: SECTIONS[name] for name in tree}, ConfigError, "--set")


MAX_SWEEP = 1_000_000  # most points of an `actuator --sweep`, one CSV row each

DEFAULT_TRAIN_CFG = {
    "iterations": 12,
    "episodes_per_iter": 3,
    "gradient_steps": 250,
    "batch_size": 192,
    "learning_rate": 2e-3,
    "lr_decay": 1.0,
    "hidden": [96, 96],
    "time_embed_dim": 8,
    "checkpoint_every": 0,  # also save policy_iter<k>.json every k iterations
    "sampler": {"steps": 5, "alpha": 1.5, "beta": 1.0},
    "expert": {"lookahead": 1, "action_limit": 6.0},
}

DEFAULT_ES_CFG = {
    "generations": 15,
    "population": 6,
    "sigma": 0.05,
    "episodes_per_eval": 3,
    "residual_hidden": [24],
    "residual_bound": 0.4,
}

# Each config section's defaults, which are its schema. `--env` holds the env
# section, and `--cfg` that of the command: `train` for train, `es` for refine.
SECTIONS = {"env": DEFAULT_ENV_CONFIG, "train": DEFAULT_TRAIN_CFG, "es": DEFAULT_ES_CFG}


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_analyze(args) -> int:
    require("--h-air", args.h_air, np.isfinite(args.h_air), "finite")
    files = _motion_files(args.motions)
    if not files:
        print("no motion files found", file=sys.stderr)
        return 1
    report = []
    failures = 0
    for path in files:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            clip = load_motion(path)
            scores = metrics.compute_complexity(clip, h_air=args.h_air)
        except Exception as exc:  # per-file failures warn but do not abort
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        report.append({
            "motion": name,
            "raw": {k: _round6(v) for k, v in scores.raw_dict().items()},
            "scores": [_round6(v) for v in scores.s],
        })
    if failures == len(files):
        print("all motion files failed to analyze", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        write_atomic(args.out, text)
        _say(args, f"wrote {len(report)} entries to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _write_run(out: str, csv_name: str, header: str, values, snapshot: dict) -> None:
    """A run's `index,value` CSV of `values` and its config.json snapshot."""
    write_atomic(os.path.join(out, csv_name),
                 f"{header}\n" + "".join(f"{i},{_fmt(v)}\n" for i, v in enumerate(values)))
    write_atomic(os.path.join(out, "config.json"), json.dumps(snapshot, indent=2) + "\n")


def cmd_actuator(args) -> int:
    require("--sweep", args.sweep, args.sweep >= 0, ">= 0")
    require("--sweep", args.sweep, args.sweep <= MAX_SWEEP, f"<= {MAX_SWEEP}")
    for flag in ("v", "tau"):
        require(f"--{flag}", getattr(args, flag), np.isfinite(getattr(args, flag)), "finite")
    catalog = actuation.load_catalog(args.catalog) if args.catalog else actuation.default_catalog()
    if args.name not in catalog:
        print(f"unknown actuator '{args.name}'; catalog has: {', '.join(sorted(catalog))}",
              file=sys.stderr)
        return 1
    p = catalog[args.name]
    if args.sweep:
        vs = np.linspace(0.0, 1.2 * p.v_x2, args.sweep)
        print("v,limit,clipped,friction,applied")
        for v in vs:
            lim = actuation.envelope_limit(v, args.tau, p)
            cl = actuation.clip_torque(args.tau, v, p)
            fr = actuation.friction_torque(v, p)
            print(",".join(_fmt(x) for x in (v, lim, cl, fr, cl - fr)))
        return 0
    v, tau = args.v, args.tau
    lim = actuation.envelope_limit(v, tau, p)
    cl = actuation.clip_torque(tau, v, p)
    fr = actuation.friction_torque(v, p)
    ap = actuation.actuate(tau, v, p)
    rows = [
        ("envelope limit L(v) [N*m]", lim),
        ("clipped torque [N*m]", cl),
        ("friction loss [N*m]", fr),
        ("applied torque [N*m]", ap),
        ("mechanical power [W]", actuation.joint_power(ap, v)),
    ]
    print(f"actuator {args.name} @ v={_fmt(v)} rad/s, tau_cmd={_fmt(tau)} N*m")
    for label, value in rows:
        print(f"  {label:<28s} {_fmt(value)}")
    return 0


@contextmanager
def _naming_file(path, section: str, assignments):
    """Prefix a ConfigError raised in the block with `path`, the config file
    of the `section` settings, unless no file was given or a --set reaches
    into the section: the value may then come from either source."""
    try:
        yield
    except ConfigError as exc:
        if path and not any(a.split("=", 1)[0].split(".")[0] == section
                            for a in assignments or []):
            raise ConfigError(f"{path}: {exc}") from exc
        raise


def _setup(args, section: str | None = None):
    """The config tree, env and motions of a train, eval or refine run.

    The tree holds the command's `section`, if it has one, read from `--cfg`,
    and `env`, read from `--env`, each over its defaults, with the --set
    values then put in place (`_apply_sets`). Every motion is checked against
    the env as it loads."""
    tree = {section: read_config(SECTIONS[section], args.cfg)} if section else {}
    tree["env"] = load_env_config(args.env)
    tree = _apply_sets(tree, args.set)
    with _naming_file(args.env, "env", args.set):
        env = ArmEnv(tree["env"], section="env")
    files = _motion_files(args.motions)
    if not files:
        raise ConfigError(f"no motion files in '{args.motions}'")
    motions = {}
    for path in files:
        name = os.path.splitext(os.path.basename(path))[0]
        clip = load_motion(path)
        env.check_motion(clip, f"{path}: ")
        motions[name] = clip
    return tree, env, motions


def _matching_env(path, model, **dims):
    """`model`, loaded from the checkpoint at `path`, if each attribute that
    `dims` names holds the env's value given there; else a ConfigError
    naming the file."""
    got = {k: getattr(model, k) for k in dims}
    if got != dims:
        raise ConfigError(f"{path}: checkpoint dims {got} do not match env {dims}")
    return model


def _load_base_policy(path, env: ArmEnv) -> flow.VelocityFieldNet:
    """The policy checkpoint at `path`, checked against the env's dims."""
    return _matching_env(path, flow.load_policy(path), obs_dim=env.obs_dim,
                         action_dim=env.n_joints)


def _train_setup(cfg: dict, env: ArmEnv, clips: list, seed: int):
    """Experts, start net and DAgger settings of a `train` config section."""
    with config_section("train", {k: f"{sub}.{k}" for sub in ("sampler", "expert")
                                  for k in cfg[sub]}):
        require("checkpoint_every", cfg["checkpoint_every"], cfg["checkpoint_every"] >= 0, ">= 0")
        experts = [ExpertPolicy(c, **cfg["expert"]) for c in clips]
        sampler = cfg["sampler"]
        net = flow.init_net(env.n_joints, env.obs_dim, hidden=cfg["hidden"],
                            time_embed_dim=cfg["time_embed_dim"], alpha=sampler["alpha"],
                            beta=sampler["beta"], rng=np.random.default_rng(seed))
        dcfg = distill.DistillCfg(
            iterations=cfg["iterations"], episodes_per_iter=cfg["episodes_per_iter"],
            gradient_steps=cfg["gradient_steps"], batch_size=cfg["batch_size"],
            learning_rate=cfg["learning_rate"], lr_decay=cfg["lr_decay"],
            sampler=flow.SamplerCfg(steps=sampler["steps"]), seed=seed)
    return experts, net, dcfg


def cmd_train(args) -> int:
    tree, env, motions = _setup(args, "train")
    cfg = tree["train"]
    names = list(motions)
    clips = [motions[n] for n in names]
    with _naming_file(args.cfg, "train", args.set):
        experts, net, dcfg = _train_setup(cfg, env, clips, args.seed)
    os.makedirs(args.out, exist_ok=True)
    every = cfg["checkpoint_every"]
    on_iteration = None
    if every > 0:
        def on_iteration(it, snap, _loss):
            if (it + 1) % every == 0:
                flow.save_policy(snap, os.path.join(args.out, f"policy_iter{it + 1}.json"))
    net, losses = distill.dagger_train(env, experts, net, dcfg, on_iteration=on_iteration)
    flow.save_policy(net, os.path.join(args.out, "policy.json"))
    _write_run(args.out, "loss.csv", "iteration,loss", losses,
               {"train": cfg, "env": tree["env"], "seed": args.seed, "motions": names})
    final = losses[-1] if losses else float("nan")
    _say(args, f"trained on {len(clips)} motion(s); final loss {_fmt(final)}")
    return 0


def cmd_eval(args) -> int:
    _, env, motions = _setup(args)
    net = _load_base_policy(args.policy, env)
    residual = _matching_env(
        args.residual, distill.load_residual(args.residual), proprio_dim=env.proprio_dim,
        command_dim=env.command_dim, action_dim=env.n_joints) if args.residual else None
    with config_section("", {"n_rollouts": "--rollouts"}):
        results = distill.evaluate_policy(net, env, motions, residual=residual,
                                          n_rollouts=args.rollouts, seed=args.seed)
    def row(m: metrics.TrackingMetrics) -> dict:
        return {k: v if k == "n_episodes" else _round6(v) for k, v in vars(m).items()}

    doc = {"motions": {name: row(results[name]) for name in sorted(results)},
           "aggregate": row(metrics.mean_tracking(list(results.values())))}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    _say(args, f"success rate {_fmt(doc['aggregate']['success'])}")
    return 0


def _es_setup(cfg: dict, env: ArmEnv, seed: int):
    """Start residual and ES settings of an `es` config section."""
    with config_section("es", {"bound": "residual_bound", "hidden": "residual_hidden"}):
        residual = distill.init_residual(env, hidden=cfg["residual_hidden"],
                                         bound=cfg["residual_bound"],
                                         rng=np.random.default_rng(seed))
        escfg = distill.ESCfg(generations=cfg["generations"], population=cfg["population"],
                              sigma=cfg["sigma"], episodes_per_eval=cfg["episodes_per_eval"],
                              seed=seed)
    return residual, escfg


def cmd_refine(args) -> int:
    tree, env, motions = _setup(args, "es")
    cfg = tree["es"]
    net = _load_base_policy(args.policy, env)
    name = sorted(motions)[0]
    with _naming_file(args.cfg, "es", args.set):
        residual, escfg = _es_setup(cfg, env, args.seed)
    refined, history = distill.es_refine(net, residual, env, motions[name], escfg)
    os.makedirs(args.out, exist_ok=True)
    distill.save_residual(refined, os.path.join(args.out, "residual.json"))
    _write_run(args.out, "reward.csv", "generation,best_reward", history,
               {"es": cfg, "env": tree["env"], "seed": args.seed, "motion": name})
    _say(args, f"refined on '{name}'; best reward {_fmt(history[-1])} "
               f"(started {_fmt(history[0])})")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowtrack",
        description="Flow-matching motion tracking on a toy torque-controlled arm.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0, never wall clock)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="complexity metrics for a motion directory")
    p.add_argument("--motions", required=True, help="motion JSON file or directory")
    p.add_argument("--h-air", type=float, default=metrics.DEFAULT_H_AIR,
                   help="airborne height threshold in metres")
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("actuator", help="inspect an actuator model")
    p.add_argument("name", help="catalog name, e.g. 7520-22.5")
    p.add_argument("--v", type=float, default=0.0, help="joint velocity rad/s")
    p.add_argument("--tau", type=float, default=0.0, help="commanded torque N*m")
    p.add_argument("--sweep", type=int, default=0, metavar="N",
                   help="print an N-point CSV over a velocity grid instead")
    p.add_argument("--catalog", help="catalog JSON (defaults to the built-in four)")
    p.set_defaults(func=cmd_actuator)

    for name, fn, extra in (
        ("train", cmd_train, "distill experts into a flow policy"),
        ("eval", cmd_eval, "closed-loop tracking metrics"),
        ("refine", cmd_refine, "ES residual refinement (aggressive mode)"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--motions", required=True, help="motion JSON file or directory")
        p.add_argument("--env", help="env config JSON (defaults built in)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dot-path config override, e.g. env.envelope_scale=0.7")
        if name == "train":
            p.add_argument("--cfg", help="training config JSON")
            p.add_argument("--out", required=True, help="output directory")
        elif name == "eval":
            p.add_argument("--policy", required=True, help="policy checkpoint")
            p.add_argument("--residual", help="optional residual checkpoint")
            p.add_argument("--rollouts", type=int, default=10)
            p.add_argument("--out", help="metrics JSON path (stdout when omitted)")
        else:
            p.add_argument("--policy", required=True, help="base policy checkpoint")
            p.add_argument("--cfg", help="refinement config JSON")
            p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=fn)
    return parser


# Options whose value may be negative, with the prefixes argparse takes for
# them. argparse reads a token after an option as a negative number only as
# -<digits>[.<digits>], so `main` joins any number to its option ("--ta=-1e1").
_NUMBER_OPTIONS = ("--v", "--t", "--ta", "--tau")


def _join_numbers(argv: list[str]) -> list[str]:
    out = []
    for token in argv:
        if out and out[-1] in _NUMBER_OPTIONS and _is_number(token):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_numbers(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
