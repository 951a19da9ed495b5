"""The benchmark's workloads: set-up, one operation, and the checks on its outputs.

Each workload is a single client that runs one operation after another
(a closed loop). An operation calls nerchain's public functions through
their modules (``training.train``, ``cli.main``, ...) so that a traced run
sees every call at the names the tracer patches. Why each workload was
chosen is recorded in BENCHMARK.json.
"""

import contextlib
import io
import os
import statistics
from types import SimpleNamespace

import numpy as np
from nerchain import cli, conll_io, metrics, training
from nerchain.conll_io import Corpus, EmbeddingSet
from nerchain.tagscheme import count_invalid_transitions
from nerchain.training import TrainConfig

from corpus import CorpusSpec, generate
from timing import calibrated, now


def _tokens(corpus):
    return sum(len(s) for s in corpus)


def _singles(corpus):
    return [Corpus((s,), corpus.tag_vocabulary) for s in corpus]


def _latency_calls(result, models, singles, embeddings, count, start):
    """count latency samples of single-sentence predictions, alternating models
    and cycling sentences. A sample is the faster of two back-to-back calls on
    the same sentence: other tenants of the shared machine preempt this process
    for milliseconds at a time, which would otherwise set the tail of calls
    that take a millisecond or more (p99 moved 3x from run to run)."""
    names = sorted(models)

    def calls():
        seconds = []
        for j in range(count):
            name = names[j % len(names)]
            index = (start + j // len(names)) % len(singles)
            best = float("inf")
            for _ in range(2):
                result.attempted += 1
                t = now()
                pred = training.predict_with_checkpoint(models[name], singles[index], embeddings)
                best = min(best, now() - t)
                result.outputs.setdefault("singles", []).append((name, index, pred[0]))
            seconds.append(best)
        return seconds

    result.latencies.extend(result.timed(None, 0, calls))


def _check_singles(result, expected):
    for name, index, pred in result.outputs.get("singles", ()):
        if pred != expected[name][index]:
            result.failures.append(f"{name} single-sentence prediction {index} differs "
                                   "from the corpus-level prediction")


class TrainWorkload:
    """train() on in-memory corpora; then save and reload the checkpoint, tag and
    score train and dev with it, and make single-sentence calls on dev."""

    setup_reps = 5

    def __init__(self, spec, config, ingested, f1_floor, latency_per_op):
        self.spec = spec
        self.config = config
        self.ingested = ingested
        self.f1_floor = f1_floor
        self.latency_per_op = latency_per_op

    def setup(self, seed, workdir):
        data = generate(self.spec, seed)
        train, dev = data.splits["tr"], data.splits["dv"]
        return SimpleNamespace(
            train=train, dev=dev, singles=_singles(dev),
            # tagged and scored after training: both splits, so that those
            # timings are long enough to be steady
            tagged=Corpus(train.sentences + dev.sentences, dev.tag_vocabulary),
            embeddings=data.embeddings if self.ingested else None,
            path=os.path.join(workdir, "model.ckpt"), reference=None, next_single=0,
            train_timing=None,
        )

    def prepare(self, ctx):
        pass

    @staticmethod
    def _save_and_load(checkpoint, path):
        training.save_checkpoint(checkpoint, path)
        return training.load_checkpoint(path)

    @staticmethod
    def _score(corpus, predictions):
        metrics.score(corpus, predictions)
        metrics.error_breakdown(corpus, predictions)

    def op(self, ctx, result, span):
        out = result.outputs
        tokens = _tokens(ctx.tagged)
        result.attempted += 1
        out["checkpoint"], out["history"] = result.timed(
            "train", self.config.epochs * len(ctx.train),
            training.train, ctx.train, ctx.dev, self.config, ctx.embeddings)
        result.dev_f1 = out["checkpoint"].best_f1
        result.attempted += 1
        out["loaded"] = result.timed(None, 0, self._save_and_load, out["checkpoint"], ctx.path)
        result.attempted += 1
        out["predictions"] = result.timed("tag", tokens, training.predict_with_checkpoint,
                                          out["loaded"], ctx.tagged, ctx.embeddings)
        result.attempted += 1
        result.timed("score", tokens, self._score, ctx.tagged, out["predictions"])
        _latency_calls(result, {"model": out["loaded"]}, ctx.singles, ctx.embeddings,
                       self.latency_per_op, ctx.next_single)
        ctx.next_single += self.latency_per_op

    def check(self, ctx, result):
        out = result.outputs
        fail = result.failures.append
        if "checkpoint" in out:
            checkpoint = out["checkpoint"]
            if not all(np.isfinite(h.mean_nll) for h in out["history"]):
                fail("train() loss is not finite")
            if not checkpoint.best_f1 >= self.f1_floor:
                fail(f"dev F1 {checkpoint.best_f1:.4f} is below the floor {self.f1_floor}")
            if ctx.reference is None:
                ctx.reference = checkpoint
            elif checkpoint != ctx.reference:
                fail("train() with the same seed and data gave a different checkpoint")
        if "loaded" in out and out["loaded"] != out["checkpoint"]:
            fail("reloaded checkpoint differs from the saved one")
        if "predictions" in out:
            dev_predictions = out["predictions"][len(ctx.train):]
            if metrics.score(ctx.dev, dev_predictions).macro_f1 != out["checkpoint"].best_f1:
                fail("reloaded checkpoint does not reproduce the best dev F1")
            _check_singles(result, {"model": dev_predictions})


COMMANDS = ("predict", "evaluate", "inspect")


def _run_cli(span, command, args):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with span(f"cli.{command}"):
            code = cli.main([command] + args)
    return code, stdout.getvalue(), stderr.getvalue()


class TagWorkload:
    """nerchain predict / evaluate / inspect on files, for a crf and a linear model."""

    setup_reps = 5
    f1_floor = 0.8

    def __init__(self, spec, configs, latency_per_op):
        self.spec = spec
        self.configs = configs  # model name -> TrainConfig
        self.latency_per_op = latency_per_op

    def setup(self, seed, workdir):
        data = generate(self.spec, seed)
        test = data.splits["te"]
        ctx = SimpleNamespace(
            test=test, singles=_singles(test), next_single=0,
            test_path=os.path.join(workdir, "test.conll"),
            emb_path=os.path.join(workdir, "test.emb"),
            embeddings=EmbeddingSet(data.embeddings.dim,
                                    {s.id: data.embeddings[s.id] for s in test}),
            models={}, paths={},
        )
        with open(ctx.test_path, "w", encoding="utf-8") as handle:
            conll_io.write_conll(test, handle)
        with open(ctx.emb_path, "w", encoding="utf-8") as handle:
            conll_io.write_embeddings(ctx.embeddings, handle)
        raw_seconds = seconds = units = 0
        for name, config in self.configs.items():
            # each training between its own calibrate() runs, for a steadier
            # train_sent_per_s; they add about 1% to this set-up's time
            (checkpoint, _), raw, scale = calibrated(
                training.train, data.splits["tr"], data.splits["dv"], config, data.embeddings)
            raw_seconds += raw
            seconds += raw * scale
            units += config.epochs * len(data.splits["tr"])
            ctx.paths[name] = (os.path.join(workdir, f"{name}.ckpt"),
                               os.path.join(workdir, f"{name}.out"))
            training.save_checkpoint(checkpoint, ctx.paths[name][0])
            ctx.models[name] = checkpoint
        ctx.train_timing = (raw_seconds, seconds, units)  # raw and reference-speed seconds
        return ctx

    def prepare(self, ctx):
        """In-process predictions and reports that the CLI output must match."""
        ctx.expected = {}
        ctx.expected_f1 = {}
        ctx.expected_inspect = {}
        types = ctx.test.tag_vocabulary.entity_types.types
        for name, checkpoint in ctx.models.items():
            predictions = training.predict_with_checkpoint(checkpoint, ctx.test, ctx.embeddings)
            ctx.expected[name] = predictions
            ctx.expected_f1[name] = f"{metrics.score(ctx.test, predictions).macro_f1:.6f}"
            breakdown = metrics.error_breakdown(ctx.test, predictions)
            ctx.expected_inspect[name] = metrics.render_breakdown(breakdown, types) + "\n"

    def op(self, ctx, result, span):
        tokens = _tokens(ctx.test)
        for name in sorted(ctx.models):
            ckpt_path, out_path = ctx.paths[name]
            arguments = {
                "predict": ["--checkpoint", ckpt_path, "--input", ctx.test_path,
                            "--embeddings", ctx.emb_path, "--output", out_path],
                "evaluate": ["--gold", ctx.test_path, "--pred", out_path, "--format", "kv"],
                "inspect": ["--gold", ctx.test_path, "--pred", out_path],
            }
            for command in COMMANDS:
                result.attempted += 1
                outcome = result.timed("tag" if command == "predict" else "score",
                                       tokens if command != "inspect" else 0,
                                       _run_cli, span, command, arguments[command])
                result.outputs[name, command] = outcome
                if outcome[0] != 0:
                    break
        _latency_calls(result, ctx.models, ctx.singles, ctx.embeddings,
                       self.latency_per_op, ctx.next_single)
        ctx.next_single += self.latency_per_op // len(ctx.models)

    def check(self, ctx, result):
        fail = result.failures.append
        voc = ctx.test.tag_vocabulary
        f1s = []
        for name in sorted(ctx.models):
            outcomes = [result.outputs.get((name, c), (None, "", "")) for c in COMMANDS]
            for command, (code, _, stderr) in zip(COMMANDS, outcomes):
                if code != 0:
                    fail(f"{name} {command} exited {code}: {stderr.strip()}")
            if any(code != 0 for code, _, _ in outcomes):
                continue
            with open(ctx.paths[name][1], encoding="utf-8") as handle:
                output = conll_io.parse_conll(handle, voc)
            if [(s.id, s.tokens) for s in output] != [(s.id, s.tokens) for s in ctx.test]:
                fail(f"{name} predict output does not align with the input by id")
            elif [list(s.gold_tags) for s in output] != ctx.expected[name]:
                fail(f"{name} predict output differs from in-process predictions")
            if name == "linear" and any(count_invalid_transitions(voc, s.gold_tags)
                                        for s in output):
                fail("constrained linear output has invalid transitions")
            kv = dict(line.split("=", 1) for line in outcomes[1][1].split())
            if kv.get("macro.f1") != ctx.expected_f1[name]:
                fail(f"{name} evaluate macro.f1 {kv.get('macro.f1')} != in-process "
                     f"{ctx.expected_f1[name]}")
            if name == "linear" and kv.get("invalid_transitions") != "0":
                fail("evaluate reports invalid transitions for the constrained linear model")
            if outcomes[2][1] != ctx.expected_inspect[name]:
                fail(f"{name} inspect output differs from the in-process error breakdown")
            f1s.append(float(kv["macro.f1"]))
        if len(f1s) == len(ctx.models):
            result.dev_f1 = statistics.fmean(f1s)
            if result.dev_f1 < self.f1_floor:
                fail(f"evaluate macro F1 {result.dev_f1:.4f} is below the floor {self.f1_floor}")
        _check_singles(result, ctx.expected)


WORKLOADS = {
    "train-crf": TrainWorkload(
        CorpusSpec(n_types=6, splits=(("tr", 300), ("dv", 150))),
        TrainConfig(arch="crf", epochs=2, lr_min=1e-4, lr_max=1e-2, seed=0),
        ingested=True, f1_floor=0.9, latency_per_op=300,
    ),
    "train-bilstm": TrainWorkload(
        CorpusSpec(n_types=2, splits=(("tr", 200), ("dv", 150)), o_vocab=3000, entity_vocab=20,
                   swap_rate=0.02),
        TrainConfig(arch="bilstm-crf", epochs=2, hidden=32, dim=32, lr_min=3e-4, lr_max=3e-2,
                    seed=0),
        ingested=False, f1_floor=0.8, latency_per_op=200,
    ),
    "tag": TagWorkload(
        CorpusSpec(n_types=6, splits=(("tr", 200), ("dv", 100), ("te", 400))),
        {
            "crf": TrainConfig(arch="crf", epochs=2, lr_min=1e-4, lr_max=1e-2, seed=0),
            "linear": TrainConfig(arch="linear", epochs=2, fc_size=128, lr_min=3e-5,
                                  lr_max=3e-3, seed=0),
        },
        latency_per_op=300,
    ),
}
