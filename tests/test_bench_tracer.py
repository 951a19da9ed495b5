"""The benchmark tracer looks its layer names up only in traced runs, so a
renamed function passes every untraced run; this checks the names directly,
and that a traced run still reaches the layers the benchmark reports."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from nerchain import cli, training
from nerchain.conll_io import EmbeddingSet, write_conll, write_embeddings
from nerchain.encoders import ARCHITECTURES
from nerchain.tagscheme import EntityTypeSet, expand_bio
from nerchain.training import TrainConfig

from oracles import random_corpus

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves_to_a_callable():
    tracer = load_tracer()
    assert tracer.LAYERS
    for name, module, attr in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_traced_training_and_tagging_reach_the_crf_and_training_layers():
    # a layer inlined into its caller would read 0 in every traced benchmark run
    corpus = random_corpus(np.random.default_rng(0), expand_bio(EntityTypeSet(("PER",))), 4)
    tracer = load_tracer().Tracer()
    archs = ("crf", "linear", "bilstm-crf")
    for op, arch in enumerate(archs):  # one traced operation per head
        with tracer.tracing(op):
            config = TrainConfig(arch=arch, epochs=1, dim=4, fc_size=4, hidden=4)
            checkpoint, _ = training.train(corpus, corpus, config)
            training.predict_with_checkpoint(checkpoint, corpus)
    recorded = {name for name, *_ in tracer.spans}
    # training.clip_rate counts one clip_global_norm call per step, which
    # returns the norm before clipping
    assert {"crf.nll_gradients", "crf.viterbi_decode", "training.adam_step",
            "training.clip_global_norm", "training.evaluate_corpus",
            "tagscheme.transition_mask"} <= recorded
    names = [name for name, *_ in tracer.spans]
    steps = len(archs) * len(corpus.sentences)  # one epoch each
    assert names.count("training.clip_global_norm") == names.count("training.adam_step") == steps
    bilstm = {name for name, *_, op in tracer.spans if op == archs.index("bilstm-crf")}
    assert {"encoders.emissions_forward", "encoders.emissions_backward",
            "encoders.embed_backward", "tagscheme.repair_bio"} <= bilstm


def test_traced_decoding_alone_reaches_the_emission_layer():
    # tagging with a bilstm-crf model spends most of its time in the LSTM;
    # outside a layer span that time would leave the traced coverage short
    corpus = random_corpus(np.random.default_rng(1), expand_bio(EntityTypeSet(("PER",))), 4)
    config = TrainConfig(arch="bilstm-crf", epochs=1, dim=4, hidden=4)
    checkpoint, _ = training.train(corpus, corpus, config)
    tracer = load_tracer().Tracer()
    with tracer.tracing(0):
        training.predict_with_checkpoint(checkpoint, corpus)
    recorded = [name for name, *_ in tracer.spans]
    assert "encoders.emissions_forward" in recorded
    assert "crf.viterbi_decode" in recorded


def test_traced_cli_round_reaches_the_tag_workload_layers(tmp_path):
    # predict, evaluate and inspect on files, as the tag workload runs them
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, expand_bio(EntityTypeSet()), 6)
    embeddings = EmbeddingSet(3, {s.id: rng.standard_normal((len(s), 3)) for s in corpus})
    paths = {name: str(tmp_path / name) for name in ("data", "emb", "ckpt", "out")}
    with open(paths["data"], "w", encoding="utf-8") as handle:
        write_conll(corpus, handle)
    with open(paths["emb"], "w", encoding="utf-8") as handle:
        write_embeddings(embeddings, handle)
    checkpoint, _ = training.train(corpus, corpus, TrainConfig(arch="crf", epochs=1), embeddings)
    training.save_checkpoint(checkpoint, paths["ckpt"])
    tracer = load_tracer().Tracer()
    with tracer.tracing(0), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["predict", "--checkpoint", paths["ckpt"], "--input", paths["data"],
                         "--embeddings", paths["emb"], "--output", paths["out"]]) == 0
        for command in ("evaluate", "inspect"):
            assert cli.main([command, "--gold", paths["data"], "--pred", paths["out"]]) == 0
    recorded = {name for name, *_ in tracer.spans}
    assert {"conll_io.parse_conll", "conll_io.load_embeddings", "conll_io.write_conll",
            "tagscheme.repair_bio", "metrics.score"} <= recorded
    assert tracer.counters["conll_io.bytes_read"] > 0


def test_traced_operations_reach_every_layer_that_src_calls(tmp_path):
    # one train + save + predict operation per head, then a CLI round: a
    # layer that a refactor inlines or renames would read 0 in every traced
    # run. No code in src/ calls crf.log_likelihood.
    rng = np.random.default_rng(2)
    corpus = random_corpus(rng, expand_bio(EntityTypeSet()), 6)
    embeddings = EmbeddingSet(3, {s.id: rng.standard_normal((len(s), 3)) for s in corpus})
    paths = {name: str(tmp_path / name) for name in ("data", "emb", "ckpt", "out")}
    with open(paths["data"], "w", encoding="utf-8") as handle:
        write_conll(corpus, handle)
    with open(paths["emb"], "w", encoding="utf-8") as handle:
        write_embeddings(embeddings, handle)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    for op, arch in enumerate(ARCHITECTURES):
        with tracer.tracing(op):
            config = TrainConfig(arch=arch, epochs=1, dim=4, fc_size=4, hidden=4)
            checkpoint, _ = training.train(corpus, corpus, config)
            training.save_checkpoint(checkpoint, paths["ckpt"])
            training.predict_with_checkpoint(checkpoint, corpus)
    checkpoint, _ = training.train(corpus, corpus, TrainConfig(arch="crf", epochs=1), embeddings)
    training.save_checkpoint(checkpoint, paths["ckpt"])
    with tracer.tracing(len(ARCHITECTURES)), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["predict", "--checkpoint", paths["ckpt"], "--input", paths["data"],
                         "--embeddings", paths["emb"], "--output", paths["out"]]) == 0
        for command in ("evaluate", "inspect"):
            assert cli.main([command, "--gold", paths["data"], "--pred", paths["out"]]) == 0
    recorded = {name for name, *_ in tracer.spans}
    layers = {name for name, _, _ in tracer_module.LAYERS}
    assert "crf.log_likelihood" in layers
    assert layers - {"crf.log_likelihood"} <= recorded
