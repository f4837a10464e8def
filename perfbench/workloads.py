"""The benchmark's two workloads: pretrain and eval.

Each workload sets up its inputs from the seed through `geoseq synth`,
`vocab` and `preprocess`, drives geoseq through `geoseq.cli.dispatch` in a
closed loop (one caller; each operation starts after the previous one
returns) for the requested number of seconds, then checks the outputs
outside the timed region. The set-up is made several times, once before the
loop and the other times between its operations, so that `setup_s`, their
median, samples the host over the whole run like the other metrics do.

Untraced runs install only `Probes`: hooks that fire once per optimizer step
or ranked trajectory and record the step boundaries, losses and rankings the
end-to-end metrics are computed from. A traced run alternates untraced
operations with operations under `tracer.Tracer`; the per-layer numbers come
from the traced ones, and the median ratio of each traced operation to the
untraced one before it is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from geoseq import bench, cli, downstream, grid, model, optim, pipeline, tensor
from geoseq.tensor import Tensor
from geoseq.vocab import PAD_ID, SOS_ID, Vocabulary, tokenize

from tracer import NAMED_OPS, OTHER_OPS, Patches, Tracer

TOP_K = 5
CORPUS_USERS = 200          # pretrain and eval corpus
PRETRAIN_SETUPS = 15        # set-ups per run (setup_s is their median): ≈0.8 s each
EVAL_SETUPS = 5             # ≈3.7 s each
PRETRAIN_WINDOWS = 192      # 6 optimizer steps of 32 per pretrain call
PRETRAIN_WARMUP_STEPS = 2
CKPT_ROUNDS = 12            # save+load round trips after training
FINETUNE_TRAIN = 32         # one batch: the heads are built in set-up
FINETUNE_TEST = 4
HELD_OUT = 240              # eval trajectories, ranked in chunks
EVAL_CHUNK = 20
REFERENCE_SAMPLES = 3       # rankings per scorer re-derived by the reference beam
DECODE_SAMPLES = 256        # corpus records checked by decode_keys
SCORERS = ("own_heads", "ffn", "lstm")
# per-layer metrics derived from array sizes or the paper-convention estimate
COMPUTED = {
    "bench.est_macs.attn_linear", "bench.est_macs.attn_scores", "bench.est_macs.attn_context",
    "bench.est_macs.ffn", "bench.est_macs.heads", "bench.executed_over_estimated_macs",
    "optim.bytes_per_step", "tensor.matmul.gflop_s",
}
# scores of two tuples this close (relative) count as equal within float32 rounding
SCORE_RTOL = 16 * float(np.finfo(np.float32).eps)


# ---------------------------------------------------------------------------
# bookkeeping shared by the workloads
# ---------------------------------------------------------------------------

def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path, doc):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def splits_doc(seed, pretrain=(), train=(), test=()) -> dict:
    return {"seed": seed, "pretrain": list(pretrain), "finetune_train": list(train),
            "finetune_val": [], "finetune_test": list(test)}


class Run:
    """Counts, checks and metrics of one benchmark run."""

    def __init__(self, workdir: Path, seed: int, seconds: float, trace: bool):
        self.dir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.exit_codes: list[int] = []
        self.report: dict[str, tuple[float, str, str]] = {}   # named end-to-end metrics
        self.e2e: dict[str, float] = {}                        # BENCHMARK.json end_to_end
        self.layer: dict[str, tuple[float, str]] = {}          # BENCHMARK.json per_layer
        self.units = 0              # units of work in the traced operations
        self.executed_macs = 0      # matmul MACs executed in the traced operations
        self.overhead_pct = 0.0
        self.setup_times: list[float] = []
        self.setup_digests: list = []
        self.setup_repeats = 1
        self._build = None

    def cli(self, *argv) -> bool:
        """One CLI call: one attempted operation, failed on a non-zero exit."""
        self.attempted += 1
        try:
            code = cli.dispatch([str(a) for a in argv])
        except Exception as e:  # dispatch maps errors to codes; count anything else
            print(f"cli {argv[0]} raised {type(e).__name__}: {e}")
            code = -1
        self.exit_codes.append(code)
        if code != 0:
            self.failed += 1
            print(f"cli {argv[0]} exited with {code}")
        return code == 0

    def check(self, name: str, ok: bool, detail: str = "", failures: int = 1):
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += failures

    def check_exit_codes(self):
        bad = [c for c in self.exit_codes if c != 0]
        self.check("every CLI exit code is 0", not bad,
                   f"{len(self.exit_codes)} calls, non-zero: {bad}", failures=0)

    def named(self, name, value, unit, better):
        self.report[name] = (float(value), unit, better)

    def setup(self, build, repeats: int):
        """Set up once for the workload; `setup_again` makes the other repeats.

        `build(d)` sets up under the directory `d` and returns (result,
        digests of its outputs). This first set-up is the traced one in a
        traced run; its result is returned.
        """
        self._build, self.setup_repeats = build, repeats
        with self.phase("setup"):
            return self._timed_build(self.dir / "setup")

    def _timed_build(self, d: Path):
        start = perf_counter()
        result, digests = self._build(d)
        self.setup_times.append(perf_counter() - start)
        self.setup_digests.append(digests)
        return result

    def setup_again(self, share: float = 1.0):
        """Untraced set-ups until `share` of the repeats are done.

        Each runs in a directory that is then removed.
        """
        while len(self.setup_times) < min(self.setup_repeats, 1 + round(
                share * (self.setup_repeats - 1))):
            d = self.dir / "setup_again"
            self._timed_build(d)
            shutil.rmtree(d)

    def check_setups(self):
        self.setup_again()
        print("set-up (s): " + " ".join(f"{x:.3f}" for x in self.setup_times))
        self.check("set-up outputs identical on every repeat",
                   all(d == self.setup_digests[0] for d in self.setup_digests),
                   f"{len(self.setup_digests)} set-ups")

    @contextmanager
    def phase(self, name):
        """Install the tracer for one phase of a traced run; a no-op untraced."""
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        self.tracer.phase = name
        try:
            yield
        finally:
            self.tracer.phase = None
            self.tracer.uninstall()

    def measure(self, op, probes, min_ops=1, warmup=None, traced_probes=None):
        """Closed loop of op(i) until the run's seconds of op time have passed.

        `warmup`, when given, runs first and is neither timed nor counted
        against the seconds. In a traced run every other operation runs with
        the tracer and `traced_probes` installed, and the loop ends on a
        traced one, so the untraced and the traced operation of each pair
        get the same index i. Between operations the loop makes the set-up
        repeats, in proportion to the op time spent, so they spread over the
        run. Returns (untraced results, traced results).
        """
        if warmup is not None:
            with probes.installed():
                warmup()
        plain, traced, spent = [], [], 0.0
        while (len(plain) + len(traced) < min_ops or spent < self.seconds
               or len(traced) < len(plain) and self.trace):
            tracing = self.trace and len(traced) < len(plain)
            done = traced if tracing else plain
            extra = traced_probes.installed() if tracing and traced_probes else nullcontext()
            with self.phase("run") if tracing else nullcontext(), probes.installed(), extra:
                start = perf_counter()
                done.append(op(len(done)))
                spent += perf_counter() - start
            self.setup_again(spent / self.seconds)
        return plain, traced


class Probes:
    """Hooks that fire once per batch, optimizer step or ranked trajectory.

    `on` names the hooks to install: "batch" (make_batch shapes and target
    counts), "loss" (forward_loss values), "step" (Adam.step end times),
    "rank" (pretrained_predict_topk / predict_topk durations and results),
    "beam" (candidates beam_topk expands).
    """

    def __init__(self, *on):
        self.on = set(on)
        self.patches = Patches()
        self.batches: list[tuple[int, int, int]] = []
        self.losses: list[float] = []
        self.step_ends: list[float] = []
        self.ranks: list[dict] = []
        self.candidates = 0
        self.keep_args = 0          # rankings whose arguments are kept for checks

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.patches.undo()

    def install(self):
        p = self.patches
        if "batch" in self.on:
            p.everywhere(model, "make_batch", self._batch)
        if "loss" in self.on:
            p.everywhere(model, "forward_loss", self._loss)
        if "step" in self.on:
            p.method(optim.Adam, "step", self._step)
        if "rank" in self.on:
            p.everywhere(downstream, "pretrained_predict_topk",
                         lambda fn: self._rank(fn, lambda args: "own_heads"))
            p.everywhere(downstream, "predict_topk",
                         lambda fn: self._rank(fn, lambda args: args[1].kind))
        if "beam" in self.on:
            p.everywhere(downstream, "beam_topk", self._beam)

    def _batch(self, fn):
        def make_batch(trajs, levels):
            batch = fn(trajs, levels)
            b, t1 = batch.keep.shape
            self.batches.append((b, t1, int(batch.keep[:, 1:].sum())))
            return batch
        return make_batch

    def _loss(self, fn):
        def forward_loss(*args, **kwargs):
            loss = fn(*args, **kwargs)
            self.losses.append(float(loss.data))
            return loss
        return forward_loss

    def _step(self, fn):
        def step(opt):
            fn(opt)
            self.step_ends.append(perf_counter())
        return step

    def _rank(self, fn, scorer_of):
        def rank(*args):
            start = perf_counter()
            top = fn(*args)
            entry = {"scorer": scorer_of(args), "s": perf_counter() - start, "top": top}
            if self.keep_args > 0:
                entry["args"] = args
                self.keep_args -= 1
            self.ranks.append(entry)
            return top
        return rank

    def _beam(self, fn):
        def beam_topk(level_probs, level_sizes, k):
            def counted(level, prev):
                probs = level_probs(level, prev)
                self.candidates += len(probs)
                return probs
            return fn(counted, level_sizes, k)
        return beam_topk


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finish_common(run: Run, pairs=()):
    """Shared metrics and checks; `pairs` holds (untraced, traced) op times."""
    run.check_setups()
    run.check_exit_codes()
    run.named("setup_s", statistics.median(run.setup_times), "s", "lower")
    run.named("peak_rss_mb", peak_rss_mb(), "MB", "lower")
    run.named("failed_share", run.failed / max(run.attempted, 1), "ratio", "lower")
    run.e2e["setup_s"] = run.report["setup_s"][0]
    run.e2e["peak_rss_mb"] = run.report["peak_rss_mb"][0]
    if pairs:
        ratios = [t / p for p, t in pairs]
        straddle = min(ratios) <= 1.0 <= max(ratios)
        print("traced / untraced per operation pair: " + " ".join(f"{r:.3f}" for r in ratios)
              + (" (they straddle 1: the overhead is unresolved, below the host's noise)"
                 if straddle else ""))
        run.overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)


# ---------------------------------------------------------------------------
# corpus set-up shared by pretrain and eval
# ---------------------------------------------------------------------------

def build_corpus(run: Run, setup_dir: Path) -> dict:
    """synth -> vocab -> preprocess through the CLI; returns the paths."""
    d = setup_dir / "corpus"
    cfg = d / "config.json"
    write_json(cfg, {"synth": {"users": CORPUS_USERS}})
    paths = {
        "config": cfg,
        "csv": d / "synth" / "synth.csv",
        "vocab": d / "vocab" / "vocab.json",
        "data": d / "prep" / "trajectories.ndjson",
        "splits": d / "prep" / "splits.json",
    }
    run.cli("synth", "--config", cfg, "--seed", run.seed, "--out", d / "synth")
    run.cli("vocab", "--config", cfg, "--input", paths["csv"], "--out", d / "vocab")
    run.cli("preprocess", "--config", cfg, "--seed", run.seed, "--input", paths["csv"],
            "--vocab", paths["vocab"], "--out", d / "prep")
    return paths


def check_corpus(run: Run, paths: dict):
    """Checks and ratios of the synth -> vocab -> preprocess output."""
    voc = Vocabulary.load(paths["vocab"])
    inverse = [{tid: tuple(key) if isinstance(key, list) else key for key, tid in lev["entries"]}
               for lev in voc.to_json()["levels"]]
    rows = pipeline.read_csv(paths["csv"])
    sample = np.random.default_rng(run.seed).choice(
        len(rows), size=min(DECODE_SAMPLES, len(rows)), replace=False)
    half = voc.spec.scales[-1] / 2.0
    bad = 0
    for idx in sample:
        r = rows[int(idx)]
        x, y = grid.project(r.lat, r.lon, cli.DEFAULTS["ref_lat"])
        keys = [inverse[h][tid] for h, tid in enumerate(tokenize(x, y, voc).ids)]
        cx, cy, _ = grid.decode_keys(keys, voc.spec)
        # a point on a cell edge may sit half a cell away up to float rounding
        if abs(cx - x) > half * (1 + 1e-9) or abs(cy - y) > half * (1 + 1e-9):
            bad += 1
    run.check("decode_keys lands within half a finest cell", bad == 0,
              f"{bad} of {len(sample)} sampled records off")
    max_len = cli.DEFAULTS["max_seq_len"]
    sos = voc.sos_tuple()
    windows = pipeline.read_trajectories(paths["data"])
    bad_windows = sum(
        1 for t in windows
        if len(t.ids) > max_len or t.ids[0] != sos or sos in t.ids[1:]
        or len(t.timestamps) != len(t.ids)
    )
    run.check("every window <= max_seq_len with SOS at row 0 only", bad_windows == 0,
              f"{bad_windows} of {len(windows)} windows bad")
    run.layer["vocab.compression_ratio"] = (voc.flat_count / voc.total_size(), "ratio")
    run.layer["pipeline.records_kept_ratio"] = (
        sum(t.length for t in windows) / len(rows), "ratio")


# ---------------------------------------------------------------------------
# pretrain: geoseq pretrain at the default model shape, then checkpoints
# ---------------------------------------------------------------------------

def run_pretrain(run: Run):
    d = run.dir
    train_cfg = d / "pretrain_config.json"
    write_json(train_cfg, {"synth": {"users": CORPUS_USERS}, "epochs": 1,
                           "warmup_steps": PRETRAIN_WARMUP_STEPS})

    def build(setup_dir):
        paths = build_corpus(run, setup_dir)
        pool = json.loads(paths["splits"].read_text(encoding="utf-8"))["pretrain"]
        rng = np.random.default_rng(run.seed)
        chosen = sorted(int(i) for i in rng.choice(pool, PRETRAIN_WINDOWS, replace=False))
        paths["train_splits"] = setup_dir / "pretrain_splits.json"
        write_json(paths["train_splits"], splits_doc(run.seed, pretrain=chosen))
        return paths, [sha256(paths[k]) for k in ("data", "vocab", "train_splits")]

    paths = run.setup(build, repeats=PRETRAIN_SETUPS)
    out = d / "pretrain"
    ckpt = out / "checkpoint.gsq"
    probes = Probes("batch", "loss", "step")
    calls = []

    def pretrain_call(i):
        probes.batches.clear()
        probes.losses.clear()
        probes.step_ends.clear()
        macs0 = tensor._MACS
        start = perf_counter()
        run.cli("pretrain", "--config", train_cfg, "--seed", run.seed, "--data", paths["data"],
                "--splits", paths["train_splits"], "--vocab", paths["vocab"], "--out", out)
        elapsed = perf_counter() - start
        ends = [start] + probes.step_ends
        call = {
            "s": elapsed,
            "step_s": [b - a for a, b in zip(ends, ends[1:])],
            "tokens": [tok for _, _, tok in probes.batches],
            "shapes": [(b, t1) for b, t1, _ in probes.batches],
            "losses": list(probes.losses),
            "macs": tensor._MACS - macs0,
            "digest": sha256(ckpt) if ckpt.is_file() else None,
        }
        run.attempted += len(call["losses"])
        run.failed += sum(1 for v in call["losses"] if not math.isfinite(v))
        calls.append(call)
        return call

    plain, traced = run.measure(pretrain_call, probes, min_ops=2)
    run.units = sum(len(c["step_s"]) for c in traced)
    run.executed_macs = sum(c["macs"] for c in traced)

    # -- step metrics: every step but the first of each call (warm-up) --------
    step_s, step_rates = [], []
    for c in plain:
        step_s += c["step_s"][1:]
        step_rates += [n / t for n, t in zip(c["tokens"][1:], c["step_s"][1:])]
    first = plain[0]
    losses = first["losses"]

    # -- checkpoint save/load round trips --------------------------------------
    state = model.load_checkpoint(ckpt)
    rt_path = d / "roundtrip" / "checkpoint.gsq"
    rt_path.parent.mkdir(parents=True, exist_ok=True)
    save_s, load_s, bad_rt = [], [], 0
    with run.phase("ckpt"):
        for _ in range(CKPT_ROUNDS):
            run.attempted += 1
            start = perf_counter()
            model.save_checkpoint(state, rt_path)
            save_s.append(perf_counter() - start)
            start = perf_counter()
            loaded = model.load_checkpoint(rt_path)
            load_s.append(perf_counter() - start)
            same = loaded.config == state.config and all(
                loaded.params[k].data.dtype == p.data.dtype
                and loaded.params[k].data.tobytes() == p.data.tobytes()
                for k, p in state.params.items()
            ) and set(loaded.params) == set(state.params)
            if not same:
                bad_rt += 1
                run.failed += 1

    # -- checks ----------------------------------------------------------
    all_losses = [v for c in calls for v in c["losses"]]
    run.check("loss is finite at every step", all(math.isfinite(v) for v in all_losses),
              f"{len(all_losses)} steps", failures=0)
    run.check("same seed gives bitwise-equal loss curves",
              all(c["losses"] == losses for c in calls), f"{len(calls)} pretrain calls")
    run.check("same seed gives a bitwise-equal checkpoint",
              len({c["digest"] for c in calls}) == 1, f"{len(calls)} checkpoints")
    run.check("save -> load round trip is bitwise equal", bad_rt == 0,
              f"{bad_rt} of {CKPT_ROUNDS} round trips differ", failures=0)
    check_corpus(run, paths)
    run.layer["model.checkpoint_mb"] = (ckpt.stat().st_size / 1e6, "MB")

    tokens_per_s = statistics.median(step_rates)
    step_ms = 1000.0 * statistics.median(step_s)
    run.named("train_tokens_per_s", tokens_per_s, "tokens/s", "higher")
    run.named("train_step_ms_p50", step_ms, "ms", "lower")
    run.named("train_loss_end", statistics.fmean(losses[-3:]), "nats", "lower")
    run.named("ckpt_save_ms_p50", 1000.0 * statistics.median(save_s), "ms", "lower")
    run.named("ckpt_load_ms_p50", 1000.0 * statistics.median(load_s), "ms", "lower")
    run.e2e["items_per_s"] = tokens_per_s
    run.e2e["op_ms_p50"] = step_ms
    pairs = [(statistics.median(p["step_s"][1:]), statistics.median(t["step_s"][1:]))
             for p, t in zip(plain, traced)]
    if traced:
        estimate_layer_metrics(run, state.config, [s for c in traced for s in c["shapes"]])
        # computed, not measured: one Adam update reads and writes p, m and v
        # and reads the gradient (7 passes over the parameter bytes)
        param_bytes = sum(p.data.nbytes for p in state.params.values())
        run.layer["optim.bytes_per_step"] = (7.0 * param_bytes, "bytes")
    finish_common(run, pairs)
    print(f"pretrain: {len(calls)} pretrain calls, {len(step_s)} timed steps "
          f"({sum(len(c['step_s']) for c in plain)} untraced steps in all), "
          f"level sizes {state.config.level_sizes}, batch T1 "
          f"{sorted({t1 for c in plain for _, t1 in c['shapes']})}; median step ms per call: "
          + " ".join(f"{1000 * statistics.median(c['step_s'][1:]):.0f}" for c in calls))


def estimate_layer_metrics(run: Run, config, shapes):
    """bench.estimate_flops terms at each batch's real T, against executed MACs."""
    terms = ("attn_linear", "attn_scores", "attn_context", "ffn", "heads")
    est = dict.fromkeys(terms, 0)
    for b, t1 in shapes:
        f = bench.estimate_flops(config, t1)
        for term in terms:
            est[term] += b * f[term]
    units = max(run.units, 1)
    for term in terms:
        run.layer[f"bench.est_macs.{term}"] = (est[term] / units, "MAC")
    total = sum(est.values())
    run.layer["bench.executed_over_estimated_macs"] = (
        run.executed_macs / total if total else 0.0, "ratio")


# ---------------------------------------------------------------------------
# eval: geoseq eval with the pre-training heads, an FFN head and an LSTM head
# ---------------------------------------------------------------------------

def run_eval(run: Run):
    d = run.dir

    def build(setup_dir):
        paths = build_corpus(run, setup_dir)
        sizes = Vocabulary.load(paths["vocab"]).sizes()
        ckpt = paths["ckpt"] = setup_dir / "model" / "checkpoint.gsq"
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        model.save_checkpoint(model.ModelState.init(model.ModelConfig(sizes), seed=run.seed), ckpt)
        n = len(pipeline.read_trajectories(paths["data"]))
        order = [int(i) for i in np.random.default_rng(run.seed).permutation(n)]
        train, test = order[:FINETUNE_TRAIN], order[FINETUNE_TRAIN:FINETUNE_TRAIN + FINETUNE_TEST]
        held_out = order[FINETUNE_TRAIN + FINETUNE_TEST:][:HELD_OUT]
        ft_splits = paths["ft_splits"] = setup_dir / "finetune_splits.json"
        write_json(ft_splits, splits_doc(run.seed, train=train, test=test))
        paths["heads"] = {}
        for kind in ("ffn", "lstm"):
            cfg = setup_dir / f"finetune_{kind}.json"
            write_json(cfg, {"synth": {"users": CORPUS_USERS}, "task": "next_location",
                             "head": kind, "freeze_backbone": True, "epochs": 1})
            run.cli("finetune", "--config", cfg, "--seed", run.seed, "--data", paths["data"],
                    "--splits", ft_splits, "--checkpoint", ckpt, "--out", setup_dir / kind)
            paths["heads"][kind] = setup_dir / kind / "head.gsq"
        paths["chunks"] = []
        for i in range(0, len(held_out), EVAL_CHUNK):
            paths["chunks"].append(setup_dir / "eval_splits" / f"chunk{i // EVAL_CHUNK}.json")
            write_json(paths["chunks"][-1], splits_doc(run.seed, test=held_out[i:i + EVAL_CHUNK]))
        digests = [sha256(p) for p in (paths["data"], ckpt, *paths["heads"].values(),
                                       *paths["chunks"])]
        return paths, digests

    paths = run.setup(build, repeats=EVAL_SETUPS)
    ckpt, heads, chunks, ft_splits = (paths[k] for k in ("ckpt", "heads", "chunks", "ft_splits"))
    n_chunks = len(chunks)
    trajs = pipeline.read_trajectories(paths["data"])
    eligible = {
        path: sum(1 for j in json.loads(path.read_text())["finetune_test"] if trajs[j].length >= 2)
        for path in chunks + [ft_splits]
    }
    probes = Probes("rank")
    traced_probes = Probes("batch", "beam")   # on traced rounds only
    bad_n = [0]
    reference = {"checked": 0, "bad": 0}

    def eval_round(splits, keep_args=0):
        result = {}
        macs0 = tensor._MACS
        for scorer in SCORERS:
            first = len(probes.ranks)
            probes.keep_args = keep_args
            argv = ["eval", "--config", paths["config"], "--data", paths["data"],
                    "--splits", splits, "--checkpoint", ckpt, "--out", d / "eval" / scorer]
            if scorer != "own_heads":
                argv += ["--head-checkpoint", heads[scorer]]
            start = perf_counter()
            ok = run.cli(*argv)
            elapsed = perf_counter() - start
            ranks = probes.ranks[first:]
            result[scorer] = {"s": elapsed, "ranks": ranks}
            report = json.loads((d / "eval" / scorer / "report.json").read_text()) if ok else {}
            if ok and report["n"] != eligible[splits]:
                bad_n[0] += 1
                run.failed += 1
            for e in ranks:
                if "args" in e:
                    reference["checked"] += 1
                    if not matches_reference(e):
                        reference["bad"] += 1
                        run.failed += 1
                    del e["args"]   # drop the loaded model
        result["macs"] = tensor._MACS - macs0
        return result

    # the warm-up round ranks the 4 fine-tuning test trajectories and is the
    # one whose rankings the reference beam re-derives
    warm = []
    plain, traced = run.measure(
        lambda r: eval_round(chunks[r % n_chunks]), probes,
        warmup=lambda: warm.append(eval_round(ft_splits, keep_args=REFERENCE_SAMPLES)),
        traced_probes=traced_probes)

    # -- checks over every ranked list -------------------------------------
    sizes = Vocabulary.load(paths["vocab"]).sizes()
    bad_lists = 0
    for rnd in warm + plain + traced:
        for scorer in SCORERS:
            for e in rnd[scorer]["ranks"]:
                run.attempted += 1
                if not valid_ranking(e["top"], sizes):
                    bad_lists += 1
    run.failed += bad_lists
    n_lists = sum(len(rnd[s]["ranks"]) for rnd in warm + plain + traced for s in SCORERS)
    run.check("each ranked list holds k distinct in-vocabulary tuples, scores non-increasing",
              bad_lists == 0, f"{bad_lists} of {n_lists} lists bad", failures=0)
    run.check("sampled rankings equal the reference beam (ties within float32 rounding)",
              reference["bad"] == 0 and reference["checked"] > 0,
              f"{reference['bad']} of {reference['checked']} differ", failures=0)
    run.check("report.json n equals the eligible trajectories", bad_n[0] == 0,
              f"{bad_n[0]} eval calls off", failures=0)
    check_corpus(run, paths)
    run.layer["model.checkpoint_mb"] = (ckpt.stat().st_size / 1e6, "MB")

    # -- metrics -----------------------------------------------------------
    # rates are medians over calls (per scorer) and rounds (pooled): a burst
    # of contention on the shared host then moves one sample, not the mean
    trio_ms = [ms for rnd in plain for ms in trio_times_ms(rnd)]
    for s in SCORERS:
        rate = statistics.median(len(rnd[s]["ranks"]) / rnd[s]["s"] for rnd in plain)
        run.named(f"eval_{s}_traj_per_s", rate, "traj/s", "higher")
    run.e2e["items_per_s"] = statistics.median(
        sum(len(rnd[s]["ranks"]) for s in SCORERS) / sum(rnd[s]["s"] for s in SCORERS)
        for rnd in plain)
    run.e2e["op_ms_p50"] = statistics.median(trio_ms)
    pairs = [(round_ms(p), round_ms(t)) for p, t in zip(plain, traced)]
    if traced:
        run.units = sum(len(rnd[s]["ranks"]) for rnd in traced for s in SCORERS)
        run.executed_macs = sum(rnd["macs"] for rnd in traced)
        eval_layer_metrics(run, traced, traced_probes, sizes)
    finish_common(run, pairs)
    print(f"eval: {n_chunks} chunks of {EVAL_CHUNK} held-out trajectories; untraced rounds "
          "(s per own heads/FFN/LSTM call): "
          + " ".join("/".join(f"{rnd[s]['s']:.2f}" for s in SCORERS) for rnd in plain))


def trio_times_ms(rnd) -> list[float]:
    """Per held-out trajectory of a round: its three rankings' time, in ms."""
    return [1000.0 * sum(e["s"] for e in trio) for trio in zip(*(rnd[s]["ranks"] for s in SCORERS))]


def round_ms(rnd) -> float:
    return statistics.median(trio_times_ms(rnd))


def valid_ranking(top, sizes) -> bool:
    tuples = [t for t, _ in top]
    scores = [s for _, s in top]
    return (
        len(top) == TOP_K
        and len(set(tuples)) == TOP_K
        and all(len(t) == len(sizes) and all(0 <= i < n for i, n in zip(t, sizes)) for t in tuples)
        and all(a >= b for a, b in zip(scores, scores[1:]))
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_topk(level_probs, level_sizes, k):
    """Beam over the conditional chain, vectorised per level with np.lexsort.

    Keeps the k best running products at each level; equal products order
    lexicographically by tuple.
    """
    k = max(1, min(k, int(np.prod(level_sizes))))
    beams, scores = [()], np.ones(1)
    for level in range(1, len(level_sizes) + 1):
        rank = np.empty(len(beams), dtype=np.int64)
        rank[sorted(range(len(beams)), key=lambda i: beams[i])] = np.arange(len(beams))
        blocks = [scores[i] * level_probs(level, beams[i][-1] if beams[i] else None)
                  .astype(np.float64) for i in range(len(beams))]
        cand_score = np.concatenate(blocks)
        cand_beam = np.repeat(np.arange(len(beams)), [len(b) for b in blocks])
        cand_cls = np.concatenate([np.arange(len(b)) for b in blocks])
        pick = np.lexsort((cand_cls, rank[cand_beam], -cand_score))[:k]
        beams = [beams[b] + (int(c),) for b, c in zip(cand_beam[pick], cand_cls[pick])]
        scores = cand_score[pick]
    return list(zip(beams, scores.tolist()))


def matches_reference(entry) -> bool:
    """Re-rank one captured call with the reference beam and compare."""
    args = entry["args"]
    if entry["scorer"] == "own_heads":
        state, prefix, k = args
        head = None
    else:
        state, head, prefix, k = args
    cfg = state.config
    batch = model.make_batch([prefix], cfg.levels)
    with tensor.no_grad():
        outputs = downstream.backbone_outputs(state, batch)
        if head is None:
            last = int(batch.keep[0].sum()) - 1
            e_last = outputs.data[0:1, last, :]
        else:
            features = head.features(outputs, batch.keep)

        def level_probs(level, prev):
            hot = None
            if prev is not None and cfg.head_mode == model.HEAD_CHAINED:
                hot = model.one_hot(np.array([prev]), cfg.level_sizes[level - 2], state.dtype)
            if head is None:
                x = e_last if hot is None else np.concatenate([e_last, hot], axis=-1)
                logits = model.head_forward(state, level, Tensor(x)).data
            else:
                logits = head.level_logits(level, features, hot).data
            return _softmax(logits)[0]

        ref = reference_topk(level_probs, cfg.level_sizes, k)
    return same_ranking(entry["top"], ref)


def same_ranking(got, ref) -> bool:
    """Equal lists, except swaps between scores equal within float32 rounding."""
    if len(got) != len(ref):
        return False
    close = lambda a, b: math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=0.0)
    for (t_got, s_got), (t_ref, s_ref) in zip(got, ref):
        if not close(s_got, s_ref):
            return False
        if t_got != t_ref:
            ties = [s for t, s in ref if t == t_got]
            at_cut = close(s_got, ref[-1][1])   # the k-th place may be a tie
            if not (ties and close(ties[0], s_got)) and not at_cut:
                return False
    return True


def eval_layer_metrics(run: Run, traced_rounds, probes: Probes, sizes):
    units = max(run.units, 1)
    for s in SCORERS:
        ms = [1000.0 * e["s"] for rnd in traced_rounds for e in rnd[s]["ranks"]]
        qs = statistics.quantiles(ms, n=10) if len(ms) >= 2 else [ms[0]] * 9
        run.layer[f"downstream.rank_ms_p50.{s}"] = (statistics.median(ms), "ms")
        run.layer[f"downstream.rank_ms_p90.{s}"] = (qs[8], "ms")
    run.layer["downstream.beam_candidates_per_traj"] = (probes.candidates / units, "count")
    specials = sum(
        1 for rnd in traced_rounds for s in SCORERS for e in rnd[s]["ranks"]
        for tup, _ in e["top"] if SOS_ID in tup or PAD_ID in tup
    )
    run.layer["downstream.special_ids_returned"] = (specials / units, "count/traj")
    # MAC estimate: the backbone at each ranked prefix's T (batch of one)
    config = model.ModelConfig(sizes)
    estimate_layer_metrics(run, config, [(b, t1) for b, t1, _ in probes.batches])


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer
# ---------------------------------------------------------------------------

def tracer_layer_metrics(run: Run):
    """Per-unit totals over the traced operations, plus per-call medians.

    The ingest path (grid, vocab building and tokenizing, the preprocessing
    stages) runs only in set-up, so its numbers are per set-up.
    """
    tr = run.tracer
    units = max(run.units, 1)
    per_unit = lambda name, field: 1000.0 * getattr(tr.stat("run", name), field) / units
    calls = lambda name: tr.stat("run", name).calls / units
    per_setup = lambda name, field: 1000.0 * getattr(tr.stat("setup", name), field)
    setup_calls = lambda name: tr.stat("setup", name).calls

    def median_ms(name, phases):
        xs = [x for p in phases for x in tr.samples.get((p, name), [])]
        return 1000.0 * statistics.median(xs) if xs else 0.0

    L = run.layer
    L["cli.dispatch.self_ms"] = (per_unit("cli.dispatch", "self_time"), "ms")
    L["synth.generate_records.ms"] = (median_ms("synth.generate_records", ("setup",)), "ms")
    for fn in ("project", "encode_point"):
        L[f"grid.{fn}.calls"] = (setup_calls(f"grid.{fn}"), "count")
        L[f"grid.{fn}.self_ms"] = (per_setup(f"grid.{fn}", "self_time"), "ms")
    L["vocab.build_vocab.ms"] = (per_setup("vocab.build_vocab", "total"), "ms")
    L["vocab.tokenize.calls"] = (setup_calls("vocab.tokenize"), "count")
    L["vocab.tokenize.self_ms"] = (per_setup("vocab.tokenize", "self_time"), "ms")
    L["vocab.load.ms"] = (per_unit("vocab.load", "total"), "ms")
    for fn in ("read_csv", "resample", "compute_velocity", "segment_trajectories", "window",
               "write_trajectories"):
        L[f"pipeline.{fn}.ms"] = (per_setup(f"pipeline.{fn}", "total"), "ms")
    L["pipeline.preprocess.self_ms"] = (per_setup("pipeline.preprocess", "self_time"), "ms")
    L["pipeline.read_trajectories.ms"] = (per_unit("pipeline.read_trajectories", "total"), "ms")
    L["model.make_batch.ms"] = (per_unit("model.make_batch", "total"), "ms")
    for fn in ("embed_sequence", "decoder_forward", "prediction_logits", "sequence_loss"):
        L[f"model.{fn}.fwd_ms"] = (per_unit(f"model.{fn}", "total"), "ms")
    for fn in ("save_checkpoint", "load_checkpoint"):
        L[f"model.{fn}.ms"] = (median_ms(f"model.{fn}", ("run", "ckpt")), "ms")
    for kind in NAMED_OPS + ("other",):
        kinds = OTHER_OPS if kind == "other" else (kind,)
        L[f"tensor.{kind}.calls"] = (sum(calls(f"tensor.{k}.fwd") for k in kinds), "count")
        L[f"tensor.{kind}.fwd_ms"] = (
            sum(per_unit(f"tensor.{k}.fwd", "self_time") for k in kinds), "ms")
        L[f"tensor.{kind}.bwd_ms"] = (
            sum(per_unit(f"tensor.{k}.bwd", "total") for k in kinds), "ms")
    L["tensor.backward.graph_ms"] = (per_unit("tensor.backward", "self_time"), "ms")
    L["tensor.nodes_per_step"] = (
        sum(calls(f"tensor.{k}.bwd") for k in NAMED_OPS + OTHER_OPS), "count")
    fwd_macs = run.executed_macs
    bwd_macs = tr.counters.get(("run", "tensor.matmul.bwd_macs"), 0)
    L["tensor.matmul.macs_per_step"] = (fwd_macs / units, "MAC")
    mm_s = tr.stat("run", "tensor.matmul.fwd").total + tr.stat("run", "tensor.matmul.bwd").total
    L["tensor.matmul.gflop_s"] = (2.0 * (fwd_macs + bwd_macs) / mm_s / 1e9 if mm_s else 0.0,
                                  "GFLOP/s")
    L["optim.step.ms"] = (per_unit("optim.step", "total"), "ms")
    L["optim.zero_grad.ms"] = (per_unit("optim.zero_grad", "total"), "ms")
    L["downstream.backbone_outputs.ms"] = (per_unit("downstream.backbone_outputs", "total"), "ms")
    L["downstream.beam_topk.self_ms"] = (per_unit("downstream.beam_topk", "self_time"), "ms")
    L["downstream.head_calls_per_traj"] = (
        calls("model.head_forward") + calls("downstream.level_logits"), "count")
    L["downstream.compute_metrics.ms"] = (per_unit("downstream.compute_metrics", "total"), "ms")
    L["trace.overhead_pct"] = (run.overhead_pct, "%")


WORKLOADS = {"pretrain": run_pretrain, "eval": run_eval}
