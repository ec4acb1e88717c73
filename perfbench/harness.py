"""One benchmark run: set-up, training, evaluation and offline enrichment.

The run drives ``mmfnd`` only through its public functions. The machine's
speed drifts over seconds, so every metric is sampled across the whole run:
after each training epoch but the last, and then until ``--seconds`` have
passed, the run does one *round* of the other phases (a set-up, an
evaluation pass, a cold and a warm enrichment pass). Each timing metric is
the median of its samples.

Phases are timed in CPU time of this single-threaded process; on a shared
machine, wall time also counts time other tenants hold the core. Each timed
pass starts after a full garbage collection, so it does not pay for an
earlier phase's garbage. Every phase checks its outputs; a failed check
counts the operations it covers as failed and never shows as a slower number.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import mmfnd
from mmfnd import data, enrich, metrics
from mmfnd import model as model_mod
from mmfnd import train as train_mod

from stagetrace import CallTimer, StageTracer, patched
from workloads import BATCH, TAU, TRAIN_SEED, Workload

CHUNK = 64  # items per timed evaluate() call

END_TO_END_UNITS = {
    "train_items_per_s": "1/s",
    "eval_items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "ratio",
    "test_fake_f1": "ratio",
    "final_train_loss": "nats",
    "enrich_cold_items_per_s": "1/s",
    "enrich_warm_items_per_s": "1/s",
}


def train_config(wl: Workload) -> train_mod.TrainConfig:
    return train_mod.TrainConfig(
        d=wl.d, d_raw=wl.d_raw, tau=TAU, batch=BATCH, epochs=wl.epochs, seed=TRAIN_SEED,
    )


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    samples: dict = field(default_factory=lambda: {
        "setup_s": [], "synth_generate_s": [], "train_step_rate": [], "traced_step_rate": [],
        "eval_chunk_rate": [], "enrich_cold_s": [], "enrich_warm_s": [],
        "load_jsonl_s": [], "save_jsonl_s": [],
    })
    values: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, operations: int) -> None:
        """Record an output check; a failure fails the operations it covers."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        if not ok:
            self.failed += operations


class _FirstStep(Exception):
    """Raised at the first training step to end a set-up-only ``train()``."""


def _stop_at_first_step(fn):
    def stop(*args, **kwargs):
        raise _FirstStep
    return stop


def _chunks(items: list, size: int = CHUNK) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class Run:
    def __init__(self, wl: Workload, seed: int, workdir: Path, traced: bool):
        self.wl, self.seed, self.traced = wl, seed, traced
        self.workdir = workdir
        self.out = Outcome()
        self.timer = CallTimer()  # whole-call spans of the traced run
        self.tracer = StageTracer() if traced else None
        self.cfg = train_config(wl)
        self.art = None
        self.model = None  # the model in training, then the trained one
        self.trained = False
        self.truth: list[data.NewsItem] = []  # what enrichment must produce
        self.digest_parts: list[bytes] = []

    def round(self) -> None:
        self.setup_once()
        if self.model is not None:
            self.evaluate_once()
        self.enrich_once(cold=True)
        self.enrich_once(cold=False)

    # -- set-up ------------------------------------------------------------

    def setup_once(self) -> None:
        """Corpus generation, fixture and gazetteer loading, and everything
        ``train()`` does before its first step."""
        wl = self.wl
        with ExitStack() as stack:
            stack.enter_context(patched(model_mod.Model, "batch_loss", _stop_at_first_step))
            if self.traced:
                stack.enter_context(patched(train_mod, "build_vocabulary", self.timer.wrap("build_vocabulary")))
                stack.enter_context(patched(model_mod.Model, "featurize", self.timer.wrap("featurize_train")))
            gc.collect()
            start = process_time()
            art = data.synth_generate(wl.n_train, wl.n_test, self.seed, d_raw=wl.d_raw)
            generated = process_time()
            if self.art is None:
                self._write_enrich_inputs(art)
            self.fixture = enrich.load_fixture(self.workdir / "fixture.jsonl")
            self.gazetteer = enrich.load_gazetteer(self.workdir / "gazetteer.txt")
            try:
                train_mod.train(self.cfg, art.train)
            except _FirstStep:
                pass
            else:
                raise RuntimeError("train() returned without taking a step")
            done = process_time()
        self.out.samples["setup_s"].append(done - start)
        self.out.samples["synth_generate_s"].append(generated - start)
        if self.art is None:
            self.art = art

    def _write_enrich_inputs(self, art) -> None:
        """Enrichment inputs: the whole corpus without entities or
        descriptions, the entity summaries as a fixture file, and the
        gazetteer."""
        self.truth = art.train.items + art.test.items
        stripped = [data.NewsItem(id=it.id, text=it.text, image=it.image, label=it.label) for it in self.truth]
        data.save_jsonl(self.workdir / "input.jsonl", data.Dataset(stripped, "enrich", "synthetic"))
        with open(self.workdir / "fixture.jsonl", "w", encoding="utf-8") as fh:
            for title, summary in art.summaries.items():
                fh.write(json.dumps({"title": title, "summary": summary}) + "\n")
        enrich.write_gazetteer(self.workdir / "gazetteer.txt", art.gazetteer)

    # -- training ----------------------------------------------------------

    def train(self) -> None:
        """One training run. A step is timed from its ``batch_loss`` call to
        the next one, or to the end of its epoch; epoch 0 is warm-up. A
        round of the other phases runs between epochs. The traced run
        alternates traced and untraced epochs so it can state its own
        overhead."""
        wl, out = self.wl, self.out
        ops = len(self.art.train) * wl.epochs
        out.attempted += ops
        epoch = 0
        step = None  # (start, items) of the step in flight

        def end_step():
            nonlocal step
            if step is not None and epoch > 0:
                traced = self.tracer is not None and epoch % 2 == 1
                out.samples["traced_step_rate" if traced else "train_step_rate"].append(
                    step[1] / (process_time() - step[0]))
            step = None

        def clock_steps(fn):
            def timed(model, batch, *args, **kwargs):
                nonlocal step
                end_step()
                self.model = model
                step = (process_time(), len(batch))
                return fn(model, batch, *args, **kwargs)
            return timed

        def progress(stats):
            nonlocal epoch
            end_step()
            if self.tracer is not None:
                self.tracer.uninstall()
            if stats.epoch < wl.epochs - 1:
                self.round()
            epoch = stats.epoch + 1
            if self.tracer is not None and epoch % 2 == 1:
                self.tracer.install()

        gc.collect()
        with patched(model_mod.Model, "batch_loss", clock_steps):
            try:
                result = train_mod.train(self.cfg, self.art.train, progress=progress)
            except train_mod.TrainingDiverged:
                out.check("train_finite", False, ops)
                self.model = None
                return
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
        curve = result.curve
        finite = len(curve) == wl.epochs and all(
            math.isfinite(v) for s in curve for v in (s.total, s.detection, s.contrastive)
        )
        out.check("train_finite", finite, ops)
        out.values["final_train_loss"] = curve[-1].total
        for s in curve:
            self.digest_parts.append(repr((s.total, s.detection, s.contrastive)).encode())
        self.model = result.model
        self.trained = True

    # -- evaluation --------------------------------------------------------

    def score(self) -> None:
        """Quality on the whole test split, checked against predictions made
        item by item."""
        test, out = self.art.test, self.out
        report = metrics.evaluate(self.model, test)
        counts = (report.tp, report.fp, report.fn, report.tn)
        out.values.update(test_accuracy=report.accuracy, test_fake_f1=report.fake.f1,
                          confusion=counts, eval_report=report.to_dict())
        preds = [self.model.predict(self.model.featurize(item)) for item in test.items]
        for p in preds:
            self.digest_parts.append(p.probs.tobytes())
        by_item = metrics.confusion_from_predictions(test.labels(), [p.label for p in preds])
        out.check("eval_confusion_sums_to_test_size", sum(counts) == len(test), len(test))
        out.check("eval_matches_item_predictions", tuple(by_item) == counts, len(test))

    def evaluate_once(self) -> None:
        """A timed pass over the test split in ``evaluate`` calls of CHUNK
        items. Once training is done, their confusion counts must add up to
        the score's."""
        test, out = self.art.test, self.out
        out.attempted += len(test)
        totals = [0, 0, 0, 0]
        with ExitStack() as stack:
            if self.traced:
                stack.enter_context(patched(model_mod.Model, "featurize", self.timer.wrap("featurize_eval")))
                stack.enter_context(patched(model_mod.Model, "predict", self.timer.wrap("predict")))
            gc.collect()
            for items in _chunks(test.items):
                start = process_time()
                report = metrics.evaluate(self.model, data.Dataset(items, "test", test.provenance))
                out.samples["eval_chunk_rate"].append(len(items) / (process_time() - start))
                for i, n in enumerate((report.tp, report.fp, report.fn, report.tn)):
                    totals[i] += n
        out.check("eval_confusion_sums_to_test_size", sum(totals) == len(test), len(test))
        if self.trained:
            out.check("eval_repeatable", tuple(totals) == out.values["confusion"], len(test))

    # -- enrichment --------------------------------------------------------

    def enrich_once(self, cold: bool) -> None:
        """JSONL in, entity extraction, offline retrieval, JSONL out. A cold
        pass starts on an empty cache; a warm pass reuses the cache the last
        cold pass filled."""
        out = self.out
        if cold:
            self.cache_dir = self.workdir / f"cache-{len(out.samples['enrich_cold_s'])}"
        client = enrich.WikiClient(enrich.DescriptionCache(self.cache_dir), fixture=self.fixture)
        stats = out.values.setdefault("enrich", {"items": 0, "extract_s": 0.0, "fetch_s": 0.0, "lookups": 0})
        sources: list[str] = []
        gc.collect()
        start = process_time()
        ds = data.load_jsonl(self.workdir / "input.jsonl", split="enrich")
        loaded = process_time()
        for item in ds.items:
            a = process_time()
            entities = enrich.extract_entities(item.text, self.gazetteer)
            b = process_time()
            try:
                found = [client.fetch_description(e) for e in entities]
            except (enrich.CacheMissError, enrich.FetchError):
                found = [None]  # left unenriched: the ground-truth check fails it
            stats["fetch_s"] += process_time() - b
            stats["extract_s"] += b - a
            if None in found:
                continue
            item.entities = [e.canonical_title for e in entities]
            item.descriptions = [d.sentence for d in found]
            sources += [d.source for d in found]
        saving = process_time()
        data.save_jsonl(self.workdir / "enriched.jsonl", ds)
        end = process_time()

        n = len(self.truth)
        out.attempted += n
        out.samples["enrich_cold_s" if cold else "enrich_warm_s"].append(end - start)
        out.samples["load_jsonl_s"].append(loaded - start)
        out.samples["save_jsonl_s"].append(end - saving)
        stats["items"] += len(ds.items)
        stats["lookups"] += len(sources)
        if cold and "cold_pass" not in stats:
            stats["cold_pass"] = {
                "lookups": len(sources),
                "cache_hits": sources.count("cache"),
                "cache_writes": sources.count("fixture"),
            }
        if not cold:
            out.check("warm_pass_reads_only_cache", set(sources) <= {"cache"}, n)
        wrong = n - len(ds.items) + sum(
            1 for got, want in zip(ds.items, self.truth) if not _same_enrichment(got, want))
        out.check("enriched_equals_ground_truth", wrong == 0, wrong)

    def check_enriched_file(self) -> None:
        """The written JSONL reads back to the generator's ground truth."""
        back = data.load_jsonl(self.workdir / "enriched.jsonl", split="enrich").items
        ok = len(back) == len(self.truth) and all(
            g.label == w.label and (g.image == w.image).all() and _same_enrichment(g, w)
            for g, w in zip(back, self.truth)
        )
        self.out.check("enriched_file_round_trips", ok, len(self.truth))


def _same_enrichment(got: data.NewsItem, want: data.NewsItem) -> bool:
    # extraction lists entities in text order, the generator in draw order
    return got.id == want.id and sorted(zip(got.entities, got.descriptions)) == sorted(
        zip(want.entities, want.descriptions)
    )


# ---------------------------------------------------------------------------
# the whole run
# ---------------------------------------------------------------------------


def run(wl: Workload, seed: int, seconds: float, traced: bool, workdir: Path, digest_store: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    started = perf_counter()
    deadline = started + seconds
    workdir.mkdir(parents=True, exist_ok=True)
    r = Run(wl, seed, workdir, traced)
    try:
        r.setup_once()
        r.train()
        if r.trained:
            r.score()
        r.round()
        while perf_counter() < deadline:
            r.round()
        r.check_enriched_file()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = r.out
    if r.trained:
        digest = hashlib.sha256(b"".join(r.digest_parts)).hexdigest()
        out.values["digest"] = digest
        out.check("digest_repeats_across_runs", _remember_digest(digest_store, wl, seed, digest),
                  len(r.art.train) * wl.epochs + len(r.art.test))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metric_values = _per_layer(r) if traced else _end_to_end(r, peak_rss_mb)
    result = {
        "correct": out.failed == 0 and all(out.checks.values()),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metric_values,
    }
    record = {
        "workload": asdict(wl),
        "seed": seed,
        "traced": traced,
        "train_config": r.cfg.to_dict(),
        "corpus": {
            "n_train": len(r.art.train), "n_test": len(r.art.test),
            "enriched": len(r.truth), "gazetteer": len(r.art.gazetteer),
        },
        "checks": out.checks,
        "samples": out.samples,
        "values": out.values,
        "wall_s": perf_counter() - started,
    }
    return result, record


def _median(xs):
    return statistics.median(xs) if xs else None


def _end_to_end(r: Run, peak_rss_mb: float) -> dict:
    s, v = r.out.samples, r.out.values
    raw = {
        "train_items_per_s": _median(s["train_step_rate"]),
        "eval_items_per_s": _median(s["eval_chunk_rate"]),
        "setup_s": _median(s["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
        "test_accuracy": v.get("test_accuracy"),
        "test_fake_f1": v.get("test_fake_f1"),
        "final_train_loss": v.get("final_train_loss"),
        "enrich_cold_items_per_s": len(r.truth) / _median(s["enrich_cold_s"]),
        "enrich_warm_items_per_s": len(r.truth) / _median(s["enrich_warm_s"]),
    }
    return {k: {"value": raw[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}


def _per_layer(r: Run) -> dict:
    s, v, t = r.out.samples, r.out.values, r.timer
    per_layer: dict[str, tuple[float, str]] = {}
    if r.tracer is not None and r.tracer.batches:
        for name, value in r.tracer.per_batch().items():
            per_layer[name] = (value, "count" if name.endswith("nodes_per_batch") else "ms")
    untraced = _median(s["train_step_rate"])
    traced = _median(s["traced_step_rate"])
    if untraced and traced:
        per_layer["trace.overhead_share"] = (traced / untraced, "ratio")
    if t.calls["predict"]:
        per_layer["model.predict_us_per_item"] = (1e6 * t.seconds["predict"] / t.calls["predict"], "us")
        per_layer["model.featurize_us_per_item"] = (
            1e6 * t.seconds["featurize_eval"] / t.calls["featurize_eval"], "us")
    reps = len(s["setup_s"])
    per_layer["data.synth_generate_s"] = (_median(s["synth_generate_s"]), "s")
    per_layer["train.build_vocabulary_ms"] = (1e3 * t.seconds["build_vocabulary"] / reps, "ms")
    per_layer["model.featurize_ms"] = (1e3 * t.seconds["featurize_train"] / reps, "ms")
    e = v["enrich"]
    cold = e["cold_pass"]
    per_layer.update({
        "data.load_jsonl_ms": (1e3 * _median(s["load_jsonl_s"]), "ms"),
        "data.save_jsonl_ms": (1e3 * _median(s["save_jsonl_s"]), "ms"),
        "enrich.extract_entities_us_per_item": (1e6 * e["extract_s"] / e["items"], "us"),
        "enrich.fetch_us_per_lookup": (1e6 * e["fetch_s"] / max(e["lookups"], 1), "us"),
        "enrich.lookups": (cold["lookups"], "count"),
        "enrich.cache_hits": (cold["cache_hits"], "count"),
        "enrich.cache_writes": (cold["cache_writes"], "count"),
        "enrich.cache_hit_ratio": (cold["cache_hits"] / max(cold["lookups"], 1), "ratio"),
    })
    return {k: {"value": val, "unit": unit} for k, (val, unit) in per_layer.items()}


def _remember_digest(store: Path, wl: Workload, seed: int, digest: str) -> bool:
    """Training is bit-deterministic: a run of the same code, workload and
    seed must reproduce the digest an earlier run stored."""
    key = json.dumps([_code_identity(), asdict(wl), seed])
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return True


def _code_identity() -> str:
    """Hash of the package sources and the numeric stack they run on."""
    h = hashlib.sha256()
    root = Path(mmfnd.__file__).parent
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    h.update(f"{np.__version__} {platform.python_version()} {platform.machine()}".encode())
    return h.hexdigest()
