import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerchain import cli, training
from nerchain.cli import main
from nerchain.conll_io import parse_conll
from nerchain.crf import NoValidPathError
from nerchain.encoders import param_shapes
from nerchain.metrics import render_kv, render_text, score
from nerchain.tagscheme import EntityTypeSet, count_invalid_transitions, expand_bio
from nerchain.training import CheckpointError, NonFiniteError, TrainConfig, load_checkpoint

from oracles import resealed

VOC = expand_bio(EntityTypeSet())

TINY = """# id s0
John _ _ B-PER
lives _ _ O
in _ _ O
New _ _ B-LOC
York _ _ I-LOC

# id s1
Acme _ _ B-CORP
Corp _ _ I-CORP
ships _ _ O
Widget _ _ B-PROD

# id s2
nothing _ _ O
here _ _ O
"""

# counts whose precision/recall round to the Spanish validation table's
# 4-decimal cells for the CRF-headed model
TABLE3 = {
    "LOC": (241, 47, 33),
    "PER": (223, 23, 24),
    "PROD": (115, 50, 39),
    "GRP": (66, 17, 18),
    "CW": (137, 35, 55),
    "CORP": (116, 18, 25),
}


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.conll"
    path.write_text(TINY, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines())


class TestHelpAndUsage:
    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["train", "--help"], ["predict", "--help"],
                     ["evaluate", "--help"], ["inspect", "--help"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert "usage" in out

    def test_help_documents_defaults(self, capsys):
        _, out, _ = run(capsys, "train", "--help")
        for token in ("10", "256", "512", "1e-6", "1e-4", "0.3", "0.2", "0.5"):
            assert token in out, token

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "train", "--frobnicate")
        assert code == 1

    def test_unknown_command_exits_one(self, capsys):
        assert run(capsys, "explode")[0] == 1

    def test_missing_required_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "train", "--train-file", "x")
        assert code == 1
        assert "--dev-file" in err

    def test_training_defaults_are_train_config_defaults(self):
        settings = cli.Settings(cli.build_parser().parse_args(["train"]))
        for f in dataclasses.fields(TrainConfig):
            value, default = getattr(settings, f.name), getattr(TrainConfig(), f.name)
            assert (type(value), value) == (type(default), default), f.name

    def test_every_train_config_field_is_a_config_key(self, tmp_path):
        values = {"arch": "linear", "epochs": 3, "dropout": 0.25, "hidden": 7, "fc_size": 9,
                  "lr_min": 2e-6, "lr_max": 3e-4, "cycle_length": 4, "seed": 5,
                  "min_count": 2, "dim": 8}
        assert sorted(values) == sorted(f.name for f in dataclasses.fields(TrainConfig))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{name}={value}\n" for name, value in values.items()))
        settings = cli.Settings(cli.build_parser().parse_args(["train", "--config", str(cfg)]))
        assert {name: getattr(settings, name) for name in values} == values

    def test_bad_config_value_names_path_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        for key, lineno, text in (("epochs", 2, "seed=1\nepochs=abc\n"),
                                  ("constrained", 2, "# note\nconstrained=maybe\n"),
                                  ("types", 1, "types=,,\n"), ("types", 2, "\ntypes=PER,PER\n")):
            cfg.write_text(text)
            code, _, err = run(capsys, "train", "--config", str(cfg))
            assert code == 1
            assert f"{cfg}:{lineno}: bad value for {key}: " in err
            assert err.count(str(cfg)) == 1

    @pytest.mark.parametrize("command, key, value", [("evaluate", "repair", "bogus"),
                                                     ("evaluate", "format", "xml"),
                                                     ("train", "arch", "foo")])
    def test_config_value_outside_the_flag_choices_is_a_usage_error(self, capsys, tmp_path,
                                                                    command, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=1\n{key}={value}\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert f"{cfg}:2: bad value for {key}: invalid choice: {value!r}" in err
        assert run(capsys, command, f"--{key}", value)[0] == 1  # as the flag is

    def test_help_defaults_are_the_values_used(self, capsys, tiny, tmp_path, monkeypatch):
        """Each `(default X)` on a command's help screen is the value the command
        runs with when neither a flag nor the config file sets it."""
        used = {}

        def spy(name, record):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                used.update(record(*args, **kwargs))
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        spy("parse_conll", lambda handle, voc, token_col, tag_col, has_labels:
            {"token-col": token_col, "tag-col": tag_col})
        spy("render_text", lambda report: {"format": "text"})
        spy("render_kv", lambda report: {"format": "kv"})
        spy("score", lambda gold, predictions, repair: {"repair": repair})
        spy("error_breakdown", lambda gold, predictions, repair: {"repair": repair})
        spy("write_conll", lambda corpus, handle, tags:
            {"output": "stdout" if handle is sys.stdout else handle.name})
        real_train = cli.train

        def short_train(train_corpus, dev_corpus, config, embeddings):
            used.update({f.name.replace("_", "-"): getattr(config, f.name)
                         for f in dataclasses.fields(config)})
            return real_train(train_corpus, dev_corpus, dataclasses.replace(config, epochs=1),
                              embeddings)

        monkeypatch.setattr(cli, "train", short_train)
        ckpt = str(tmp_path / "m.ckpt")
        for argv in (["train", "--train-file", tiny, "--dev-file", tiny, "--checkpoint", ckpt],
                     ["predict", "--checkpoint", ckpt, "--input", tiny],
                     ["evaluate", "--gold", tiny, "--pred", tiny],
                     ["inspect", "--gold", tiny, "--pred", tiny]):
            used.clear()
            assert run(capsys, *argv)[0] == 0
            help_text = " ".join(run(capsys, argv[0], "--help")[1].split())
            checked = []
            for entry in re.split(r" (?=--[a-z])", help_text):
                flag, stated = entry.split()[0][2:], re.search(r"\(default ([^),]+)", entry)
                # constrained's default, under either spelling, is a behaviour
                if stated and flag not in ("constrained", "no-constrained"):
                    assert type(used[flag])(stated[1]) == used[flag], (argv[0], flag)
                    checked.append(flag)
            assert checked, argv[0]

    def test_non_utf8_config_names_path_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=1\nformat=\xff\n")
        code, _, err = run(capsys, "evaluate", "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:2: not UTF-8" in err

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("explosions=yes\n")
        code, _, err = run(capsys, "evaluate", "--config", str(cfg))
        assert code == 1
        assert "explosions" in err


class TestTrain:
    def train_args(self, tiny, tmp_path, *extra):
        ckpt = tmp_path / "model.ckpt"
        return ckpt, ["train", "--train-file", tiny, "--dev-file", tiny,
                      "--checkpoint", str(ckpt), "--epochs", "2", "--seed", "3",
                      "--dropout", "0.1", *extra]

    def test_writes_checkpoint_log_and_report(self, capsys, tiny, tmp_path):
        ckpt, argv = self.train_args(tiny, tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert ckpt.exists()
        log = (tmp_path / "model.ckpt.log").read_text()
        assert log.count("epoch") == 2
        assert "dev P" in log
        assert "Average" in out

    # settings under which epoch 2 of 3 scores best, so the kept epoch is not the last
    @pytest.mark.parametrize("extra", [
        ("--seed", "3", "--lr-min", "1", "--lr-max", "1"),
        ("--arch", "bilstm-crf", "--hidden", "3", "--seed", "5", "--lr-min", "0.3",
         "--lr-max", "0.3"),
        ("--arch", "linear", "--fc-size", "8", "--seed", "1", "--lr-min", "0.3",
         "--lr-max", "0.3", "--format", "kv"),
    ])
    def test_report_is_the_kept_epochs_dev_scores(self, capsys, tiny, tmp_path, monkeypatch,
                                                  extra):
        decoded = []
        real = training.predict_with_checkpoint

        def counted(checkpoint, corpus, *args):
            decoded.append(corpus)
            return real(checkpoint, corpus, *args)

        monkeypatch.setattr(training, "predict_with_checkpoint", counted)
        ckpt, argv = self.train_args(tiny, tmp_path, "--epochs", "3", *extra)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(decoded) == 3  # once per epoch, and not again after train()
        monkeypatch.undo()
        dev = parse_conll(TINY, VOC)
        checkpoint = training.load_checkpoint(str(ckpt))
        assert checkpoint.best_epoch == 2
        report = score(dev, training.predict_with_checkpoint(checkpoint, dev))
        render = render_kv if "kv" in extra else render_text
        assert out == render(report) + "\n"

    def test_missing_dev_file_names_path(self, capsys, tiny, tmp_path):
        _, argv = self.train_args(tiny, tmp_path)
        argv[argv.index("--dev-file") + 1] = str(tmp_path / "nope.conll")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "nope.conll" in err

    def test_rerun_same_seed_identical_digest(self, capsys, tiny, tmp_path):
        ckpt, argv = self.train_args(tiny, tmp_path, "--arch", "bilstm-crf",
                                     "--hidden", "3")
        digests = []
        for _ in range(2):
            assert run(capsys, *argv)[0] == 0
            digests.append(hashlib.sha256(ckpt.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_malformed_embedding_numbers_exit_two(self, capsys, tiny, tmp_path):
        dev = tmp_path / "dev.conll"
        dev.write_text(TINY.replace("# id s", "# id d"), encoding="utf-8")
        emb = tmp_path / "bad.emb"
        for text, message in (("dim x\n", "line 1: bad dimension 'x'"),
                              ("dim 2\n# id s0\n1 abc\n", "line 3: non-numeric")):
            emb.write_text(text, encoding="utf-8")
            _, argv = self.train_args(tiny, tmp_path, "--embeddings", str(emb))
            argv[argv.index("--dev-file") + 1] = str(dev)
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert f"{emb}: {message}" in err

    def test_empty_sentence_id_exits_two_naming_path_and_line(self, capsys, tiny, tmp_path):
        # the writers put "# id " before an empty id; both readers refuse it
        data = tmp_path / "data.conll"
        data.write_text(TINY.replace("# id s1", "# id "), encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--gold", str(data), "--pred", tiny)
        assert code == 2
        assert f"{data}: line 8: empty sentence id" in err
        emb = tmp_path / "e.emb"
        emb.write_text("dim 1\n# id \n1\n", encoding="utf-8")
        _, argv = self.train_args(tiny, tmp_path, "--embeddings", str(emb))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{emb}: line 2: empty sentence id" in err

    def test_non_utf8_data_files_exit_two_naming_the_file(self, capsys, tiny, tmp_path):
        bad = tmp_path / "bad.data"
        bad.write_bytes(TINY.encode("utf-8").replace(b"Acme", b"Ac\xe9me"))
        for flag in ("--dev-file", "--embeddings"):
            _, argv = self.train_args(tiny, tmp_path, flag, str(bad))
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert f"{bad}:9: not UTF-8" in err

    def test_diverged_run_exits_three(self, capsys, tmp_path):
        two = tmp_path / "two.conll"
        two.write_text("John _ _ B-PER\nlives _ _ O\n\nAcme _ _ B-CORP\nships _ _ O\n",
                       encoding="utf-8")
        code, _, err = run(capsys, "train", "--train-file", str(two), "--dev-file", str(two),
                           "--checkpoint", str(tmp_path / "m.ckpt"), "--lr-min", "1e307",
                           "--lr-max", "1e308", "--dropout", "0", "--epochs", "3")
        assert code == 3
        assert err == ("nerchain: numeric failure: training diverged at epoch 1, dev evaluation: "
                       "sentence '0': non-finite emission score\n")

    def test_diverged_crf_decode_names_the_epoch(self, capsys, tmp_path):
        # the unmasked decode of a diverged crf model overflows its best path
        # score: a numeric failure at that epoch, not a mask failure. The rates
        # keep each emission finite (about 1e153 squared) and their path sum not.
        mixed = tmp_path / "mixed.conll"
        mixed.write_text("a _ _ B-PER\nb _ _ I-PER\nc _ _ O\n\nd _ _ O\ne _ _ B-LOC\n",
                         encoding="utf-8")
        code, _, err = run(capsys, "train", "--train-file", str(mixed), "--dev-file",
                           str(mixed), "--checkpoint", str(tmp_path / "m.ckpt"), "--lr-min",
                           "2e152", "--lr-max", "1e153", "--dropout", "0", "--epochs", "3")
        assert code == 3
        log, failure = err.splitlines()  # epoch 1 completes and logs its line
        assert log.startswith("epoch 1 nll ")
        assert failure == ("nerchain: numeric failure: training diverged at epoch 2, dev "
                           "evaluation: sentence '0': non-finite best path score inf")

    @pytest.mark.parametrize("extra, config, message", [
        (["--epochs", "0"], "", "epochs must be >= 1, got 0"),
        (["--hidden", "0"], "", "hidden must be >= 1"),
        (["--dropout", "1.5"], "", "dropout must be in [0, 1), got 1.5"),
        (["--lr-min", "1", "--lr-max", "0.1"], "",
         "need 0 < lr_min <= lr_max < inf, got (1.0, 0.1)"),
        ([], "epochs=0\n", "epochs must be >= 1, got 0"),
        ([], "seed=-1\n", "seed must be >= 0, got -1"),
        ([], "cycle_length=0\n", "cycle_length must be >= 2, got 0"),
        (["--lr-min", "1", "--lr-max", "inf"], "",
         "need 0 < lr_min <= lr_max < inf, got (1.0, inf)"),
    ])
    def test_rejected_training_setting_is_a_usage_error(self, capsys, tiny, tmp_path, extra,
                                                        config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run(capsys, "train", "--train-file", tiny, "--dev-file", tiny,
                             "--checkpoint", str(ckpt), "--config", str(cfg), *extra)
        assert (code, out, err) == (1, "", f"nerchain: error: {message}\n")
        assert not ckpt.exists() and not (tmp_path / "m.ckpt.log").exists()

    def test_unallocatable_layout_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        # `--hidden 3000000` asks init_params for 262 TiB; the allocation is
        # simulated, never attempted
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(training, "init_params", no_memory)
        two = tmp_path / "two.conll"
        two.write_text("John _ _ B-PER\nlives _ _ O\n\nAcme _ _ B-CORP\nships _ _ O\n",
                       encoding="utf-8")
        code, _, err = run(capsys, "train", "--train-file", str(two), "--dev-file", str(two),
                           "--checkpoint", str(tmp_path / "m.ckpt"), "--arch", "bilstm-crf",
                           "--hidden", "3000000")
        assert code == 1
        dim, fc_size = TrainConfig().dim, TrainConfig().fc_size
        vocab_size = 2 + 4  # PAD, UNK and the four tokens
        floats = sum(math.prod(shape) for shape in param_shapes(
            "bilstm-crf", dim, VOC.k, 3000000, fc_size, vocab_size).values())
        assert (f"nerchain: error: cannot allocate the bilstm-crf layout (hidden=3000000, "
                f"fc_size={fc_size}, dim={dim}): {floats} parameter floats") in err
        assert "Traceback" not in err and not (tmp_path / "m.ckpt").exists()

    def test_embeddings_with_train_file_as_dev_file(self, capsys, tmp_path):
        for text in (TINY, TINY.replace("# id s0\n", "").replace("# id s1\n", "")
                     .replace("# id s2\n", "")):  # explicit, then ordinal ids
            data = tmp_path / "data.conll"
            data.write_text(text, encoding="utf-8")
            ids = [s.id for s in parse_conll(text, VOC)]
            emb = tmp_path / "data.emb"
            emb.write_text("dim 2\n" + "".join(
                f"# id {sid}\n" + "0.5 -1\n" * len(s) + "\n"
                for sid, s in zip(ids, parse_conll(text, VOC))), encoding="utf-8")
            _, argv = self.train_args(str(data), tmp_path, "--embeddings", str(emb))
            assert run(capsys, *argv)[0] == 0

    def test_shared_id_naming_different_sentences_exits_two(self, capsys, tiny, tmp_path):
        dev = tmp_path / "dev.conll"
        dev.write_text(TINY.replace("John", "Jane"), encoding="utf-8")
        emb = tmp_path / "e.emb"
        emb.write_text("dim 1\n", encoding="utf-8")
        _, argv = self.train_args(tiny, tmp_path, "--embeddings", str(emb))
        argv[argv.index("--dev-file") + 1] = str(dev)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "sentence id 's0' names different sentences" in err

    def test_unknown_tag_in_data_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.conll"
        bad.write_text("a _ _ B-NOPE\n")
        ckpt, argv = self.train_args(str(bad), tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "B-NOPE" in err

    def test_config_file_with_flag_override(self, capsys, tiny, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"train_file={tiny}\ndev_file={tiny}\nepochs=0\nseed=3\n")
        ckpt = tmp_path / "m.ckpt"
        code, _, _ = run(capsys, "train", "--config", str(cfg),
                         "--checkpoint", str(ckpt), "--epochs", "2")
        assert code == 0
        log = (tmp_path / "m.ckpt.log").read_text()
        assert log.count("epoch") == 2  # flag beat the config file

    def test_kv_report_format(self, capsys, tiny, tmp_path):
        ckpt, argv = self.train_args(tiny, tmp_path, "--format", "kv")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "macro.f1=" in out


class TestPredict:
    def memorize(self, capsys, tiny, tmp_path, *extra):
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--train-file", tiny, "--dev-file", tiny,
                "--checkpoint", str(ckpt), "--epochs", "60", "--seed", "1",
                "--dropout", "0", "--lr-min", "0.1", "--lr-max", "0.1", *extra]
        assert run(capsys, *argv)[0] == 0
        return str(ckpt)

    def test_memorized_model_reproduces_gold(self, capsys, tiny, tmp_path):
        ckpt = self.memorize(capsys, tiny, tmp_path)
        out_path = tmp_path / "pred.conll"
        code, _, _ = run(capsys, "predict", "--checkpoint", ckpt, "--input", tiny,
                         "--output", str(out_path))
        assert code == 0
        gold = parse_conll(TINY, VOC)
        pred = parse_conll(out_path.read_text(), VOC)
        for g, p in zip(gold, pred):
            assert p.id == g.id
            assert p.tokens == g.tokens
            assert p.gold_tags == g.gold_tags

    def test_constrained_output_always_valid(self, capsys, tiny, tmp_path):
        # 1 epoch of an untrained linear head: constrained decoding must still
        # produce BIO-valid sequences
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--train-file", tiny, "--dev-file", tiny, "--checkpoint",
                str(ckpt), "--epochs", "1", "--arch", "linear", "--fc-size", "8"]
        assert run(capsys, *argv)[0] == 0
        code, out, _ = run(capsys, "predict", "--checkpoint", str(ckpt),
                           "--input", tiny, "--constrained")
        assert code == 0
        pred = parse_conll(out, VOC)
        for sent in pred:
            assert count_invalid_transitions(VOC, sent.gold_tags) == 0

    @pytest.mark.parametrize("config, flags", [("constrained=no\n", []),
                                               ("constrained=yes\n", ["--no-constrained"])])
    def test_unconstrained_linear_model_decodes_without_the_mask(self, capsys, tiny, tmp_path,
                                                                 tiny_models, config, flags):
        checkpoint = training.load_checkpoint(tiny_models["linear"])
        corpus = parse_conll(TINY, VOC)
        free = training.predict_with_checkpoint(checkpoint, corpus, constrained=False)
        assert free != training.predict_with_checkpoint(checkpoint, corpus)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, _ = run(capsys, "predict", "--checkpoint", tiny_models["linear"],
                           "--input", tiny, "--config", str(cfg), *flags)
        assert code == 0
        assert [list(s.gold_tags) for s in parse_conll(out, VOC)] == free

    def test_only_the_commands_that_read_tags_take_a_tag_column(self, capsys, tiny, tmp_path,
                                                                tiny_models):
        predict = ["predict", "--checkpoint", tiny_models["crf"], "--input", tiny]
        code, out, err = run(capsys, *predict, "--tag-col", "0")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --tag-col 0" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tag_col=0\n")  # one config file may serve every command
        assert run(capsys, *predict, "--config", str(cfg))[0] == 0
        for argv in (["train", "--train-file", tiny, "--dev-file", tiny, "--epochs", "1",
                      "--checkpoint", str(tmp_path / "m.ckpt")],
                     ["evaluate", "--gold", tiny, "--pred", tiny],
                     ["inspect", "--gold", tiny, "--pred", tiny]):
            assert run(capsys, *argv, "--tag-col", "3")[0] == 0, argv[0]

    def test_vocabulary_mismatch_exits_two(self, capsys, tiny, tmp_path):
        ckpt = self.memorize(capsys, tiny, tmp_path)
        cfg = tmp_path / "small.cfg"
        cfg.write_text("types=PER,LOC\n")
        code, _, err = run(capsys, "predict", "--checkpoint", ckpt, "--input", tiny,
                           "--config", str(cfg))
        assert code == 2
        assert "tags" in err

    def test_missing_checkpoint_exits_two(self, capsys, tiny, tmp_path):
        code, _, _ = run(capsys, "predict", "--checkpoint", str(tmp_path / "no.ckpt"),
                         "--input", tiny)
        assert code == 2

    def test_hash_token_exits_two_naming_file_and_line_and_writes_nothing(
            self, capsys, tiny, tmp_path):
        ckpt = self.memorize(capsys, tiny, tmp_path)
        bad = tmp_path / "bad.conll"
        bad.write_text("John _ _ O\n #tag _ _ O\n", encoding="utf-8")
        out_path = tmp_path / "out.conll"
        code, _, err = run(capsys, "predict", "--checkpoint", ckpt, "--input", str(bad),
                           "--output", str(out_path))
        assert code == 2
        assert f"{bad}: line 2: token '#tag' starts with '#'" in err
        assert not out_path.exists()

    def test_diverged_model_exits_two_or_three_and_writes_nothing(self, capsys, tiny, tmp_path,
                                                                  tiny_models):
        # transitions at +-1e308 overflow every path score: to inf, a data
        # error, or under the mask to -inf, where no path is allowed
        checkpoint = training.load_checkpoint(tiny_models["crf"])
        diverged, out = tmp_path / "diverged.ckpt", tmp_path / "out.conll"
        named = f"{diverged}: sentence 's0'"  # the model's file and the first sentence
        error, numeric = f"nerchain: error: {named}:", f"nerchain: numeric failure: {named}:"
        for value, flags, expected in (
                (1e308, [], (2, f"{error} non-finite best path score inf\n")),
                (-1e308, [], (2, f"{error} non-finite best path score -inf\n")),
                (-1e308, ["--constrained"],
                 (3, f"{numeric} no path satisfies the transition mask\n"))):
            checkpoint.params["crf.trans"][...] = value
            training.save_checkpoint(checkpoint, diverged)
            code, _, err = run(capsys, "predict", "--checkpoint", str(diverged), "--input", tiny,
                               "--output", str(out), *flags)
            assert (code, err) == expected
            assert not out.exists()

    def test_strict_repair_names_the_first_failing_sentence(self, capsys, tiny, tmp_path,
                                                            tiny_models):
        # START -> I-PER outscores every other first step, so each decoded
        # sentence opens with an orphan I-PER
        checkpoint = training.load_checkpoint(tiny_models["crf"])
        checkpoint.params["crf.trans"][VOC.start_index, VOC.index("I-PER")] = 1e3
        path, out = tmp_path / "orphan.ckpt", tmp_path / "out.conll"
        training.save_checkpoint(checkpoint, path)
        code, _, err = run(capsys, "predict", "--checkpoint", str(path), "--input", tiny,
                           "--output", str(out), "--repair", "strict")
        assert (code, err) == (2, "nerchain: error: sentence 's0': invalid transition "
                                  "<START> -> I-PER at position 0\n")
        assert not out.exists()

    def test_repair_flag_applies(self, capsys, tiny, tmp_path):
        ckpt = self.memorize(capsys, tiny, tmp_path)
        code, out, _ = run(capsys, "predict", "--checkpoint", ckpt, "--input", tiny,
                           "--repair", "convert")
        assert code == 0
        for sent in parse_conll(out, VOC):
            assert count_invalid_transitions(VOC, sent.gold_tags) == 0


def write_table3_fixture(tmp_path):
    gold_lines, pred_lines = [], []
    i = 0

    def block(lines, sid, tag):
        lines.append(f"# id {sid}\nw _ _ {tag}\n")

    for etype, (tp, fp, fn) in TABLE3.items():
        for _ in range(tp):
            block(gold_lines, f"s{i}", f"B-{etype}")
            block(pred_lines, f"s{i}", f"B-{etype}")
            i += 1
        for _ in range(fp):
            block(gold_lines, f"s{i}", "O")
            block(pred_lines, f"s{i}", f"B-{etype}")
            i += 1
        for _ in range(fn):
            block(gold_lines, f"s{i}", f"B-{etype}")
            block(pred_lines, f"s{i}", "O")
            i += 1
    gold = tmp_path / "gold.conll"
    pred = tmp_path / "pred.conll"
    gold.write_text("\n".join(gold_lines), encoding="utf-8")
    pred.write_text("\n".join(pred_lines), encoding="utf-8")
    return str(gold), str(pred)


class TestEvaluate:
    def test_gold_against_itself(self, capsys, tiny):
        code, out, _ = run(capsys, "evaluate", "--gold", tiny, "--pred", tiny,
                           "--format", "kv")
        assert code == 0
        values = kv(out)
        for etype in ("PER", "LOC", "CORP", "PROD"):
            assert values[f"{etype}.f1"] == "1.000000"
        assert values["invalid_transitions"] == "0"

    def test_reproduces_validation_table_macro(self, capsys, tmp_path):
        gold, pred = write_table3_fixture(tmp_path)
        code, out, _ = run(capsys, "evaluate", "--gold", gold, "--pred", pred,
                           "--format", "kv")
        assert code == 0
        values = kv(out)
        assert float(values["macro.precision"]) == pytest.approx(0.8163, abs=5e-4)
        assert float(values["macro.recall"]) == pytest.approx(0.8085, abs=5e-4)
        assert float(values["macro.f1"]) == pytest.approx(0.8117, abs=5e-4)

    def test_shuffled_pred_file_aligned_by_id(self, capsys, tmp_path, tiny):
        base = parse_conll(TINY, VOC)
        shuffled = tmp_path / "shuf.conll"
        blocks = TINY.strip().split("\n\n")
        shuffled.write_text("\n\n".join([blocks[2], blocks[0], blocks[1]]) + "\n")
        one = run(capsys, "evaluate", "--gold", tiny, "--pred", tiny, "--format", "kv")
        two = run(capsys, "evaluate", "--gold", tiny, "--pred", str(shuffled),
                  "--format", "kv")
        assert one == two

    def test_length_mismatch_exits_two(self, capsys, tmp_path, tiny):
        bad = tmp_path / "bad.conll"
        bad.write_text("# id s0\nJohn _ _ B-PER\n\n# id s1\nAcme _ _ O\n\n# id s2\nx _ _ O\n")
        for command in ("evaluate", "inspect"):  # the scorer's error, naming the sentence
            code, out, err = run(capsys, command, "--gold", tiny, "--pred", str(bad))
            assert (code, out, err) == (
                2, "", "nerchain: error: sentence 's0': 1 predicted tags for 5 tokens\n")

    def test_the_first_failing_sentence_is_reported_under_strict_repair(self, capsys, tmp_path,
                                                                         tiny):
        # s0 breaks the scheme and s1 is short: s0 comes first in the corpus
        bad = tmp_path / "bad.conll"
        bad.write_text(TINY.replace("John _ _ B-PER", "John _ _ I-PER")
                       .replace("ships _ _ O\nWidget _ _ B-PROD\n", ""), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--gold", tiny, "--pred", str(bad),
                             "--repair", "strict")
        assert (code, out, err) == (
            2, "", "nerchain: error: sentence 's0': invalid transition <START> -> I-PER "
                   "at position 0\n")

    def test_a_strict_repair_error_names_its_sentence(self, capsys, tmp_path, tiny):
        bad = tmp_path / "bad.conll"
        bad.write_text(TINY.replace("Acme _ _ B-CORP", "Acme _ _ I-LOC"), encoding="utf-8")
        for command in ("evaluate", "inspect"):
            code, out, err = run(capsys, command, "--gold", tiny, "--pred", str(bad),
                                 "--repair", "strict")
            assert (code, out, err) == (
                2, "", "nerchain: error: sentence 's1': invalid transition <START> -> I-LOC "
                       "at position 0\n")

    def test_out_of_range_token_column_exits_two(self, capsys, tiny):
        code, _, err = run(capsys, "evaluate", "--gold", tiny, "--pred", tiny, "--token-col", "-9")
        assert code == 2
        assert "line 2: expected token in column -9" in err

    def test_bad_gold_file_error_names_the_file(self, capsys, tmp_path, tiny):
        bad = tmp_path / "bad.conll"
        bad.write_text("# id s0\nJohn _ _ B-NOPE\n")
        code, _, err = run(capsys, "evaluate", "--gold", str(bad), "--pred", tiny)
        assert code == 2
        assert f"{bad}: line 2: unknown tag name 'B-NOPE'" in err

    def test_token_column_equal_to_tag_column_exits_two(self, capsys, tiny):
        code, out, err = run(capsys, "evaluate", "--gold", tiny, "--pred", tiny,
                             "--token-col", "-1", "--tag-col", "-1")
        assert code == 2
        assert out == ""
        assert f"{tiny}: line 2: token column -1 and tag column -1 are the same field" in err

    def test_sentence_count_mismatch_exits_two(self, capsys, tmp_path, tiny):
        bad = tmp_path / "bad.conll"
        bad.write_text("# id s0\nJohn _ _ B-PER\nlives _ _ O\nin _ _ O\nNew _ _ B-LOC\nYork _ _ I-LOC\n")
        code, _, _ = run(capsys, "evaluate", "--gold", tiny, "--pred", str(bad))
        assert code == 2


class TestInspect:
    def test_identity_predictions_empty(self, capsys, tiny):
        code, out, _ = run(capsys, "inspect", "--gold", tiny, "--pred", tiny)
        assert code == 0
        assert "boundary errors: 0" in out
        assert "missed spans: 0" in out
        assert "spurious spans: 0" in out

    def test_single_confusion_cell(self, capsys, tmp_path):
        gold = tmp_path / "g.conll"
        pred = tmp_path / "p.conll"
        gold.write_text("# id s0\na _ _ B-PER\nb _ _ I-PER\n")
        pred.write_text("# id s0\na _ _ B-LOC\nb _ _ I-LOC\n")
        code, out, _ = run(capsys, "inspect", "--gold", str(gold), "--pred", str(pred))
        assert code == 0
        assert "PER -> LOC: 1" in out

    def test_counts_reconcile_with_evaluate(self, capsys, tmp_path):
        gold, pred = write_table3_fixture(tmp_path)
        _, report_out, _ = run(capsys, "evaluate", "--gold", gold, "--pred", pred,
                               "--format", "kv")
        values = kv(report_out)
        total_fp = sum(int(values[f"{t}.fp"]) for t in TABLE3)
        total_fn = sum(int(values[f"{t}.fn"]) for t in TABLE3)
        _, out, _ = run(capsys, "inspect", "--gold", gold, "--pred", pred)
        # fixture spans never overlap, so every error is a miss or spurious
        assert f"missed spans: {total_fn}" in out
        assert f"spurious spans: {total_fp}" in out


class TestExitCodeContract:
    def test_numeric_failures_exit_three(self, capsys, tiny, monkeypatch):
        for exc in (NonFiniteError("loss blew up"), NoValidPathError("masked out")):
            monkeypatch.setitem(cli._COMMANDS, "evaluate",
                                lambda settings, exc=exc: (_ for _ in ()).throw(exc))
            code, _, err = run(capsys, "evaluate", "--gold", tiny, "--pred", tiny)
            assert code == 3
            assert "numeric" in err

    def test_running_out_of_memory_exits_two_with_one_line(self, capsys, tiny, tmp_path,
                                                           monkeypatch, tiny_models):
        emissions_forward = training.emissions_forward

        def no_memory_for(fails):
            def forward(arch, params, xs, *args):
                if fails(xs):
                    raise MemoryError
                return emissions_forward(arch, params, xs, *args)
            return forward

        # the longest of the three input sentences, not the first one, names the batch
        skewed = tmp_path / "skewed.conll"
        skewed.write_text("# id a\nx\n\n# id b\nx\ny\nz\n\n# id c\nx\ny\n", encoding="utf-8")
        dev = tmp_path / "dev.conll"  # the same sentences as the train file, named apart
        shutil.copyfile(tiny, dev)
        train_argv = ["train", "--train-file", tiny, "--dev-file", str(dev),
                      "--checkpoint", str(tmp_path / "m.ckpt")]
        batch = "decoding a batch of 3 sentences, the longest"
        for fails, argv, detail in (
                (lambda xs: len(xs[0]) == 4, train_argv,
                 f"{tiny}: epoch 1, sentence 's1' (4 tokens)"),
                (lambda xs: len(xs) > 1, train_argv,
                 f"{dev}: epoch 1, dev evaluation: {batch} 's0' (5 tokens)"),
                (lambda xs: True, ["predict", "--checkpoint", tiny_models["crf"], "--input",
                                   str(skewed)], f"{skewed}: {batch} 'b' (3 tokens)")):
            monkeypatch.setattr(training, "emissions_forward", no_memory_for(fails))
            code, out, err = run(capsys, *argv)
            # one line naming the command and where memory ran out, and no traceback
            assert (code, out, err) == (
                2, "", f"nerchain: error: {argv[0]}: out of memory: {detail}\n")


# fragments that get past the first checks more often than random bytes do
_FRAGMENTS = st.sampled_from(["# id s0", "# id", "John", "B-PER", "I-PER", "O", "_", "B-NOPE"])
_TEXT = st.lists(st.lists(_FRAGMENTS | st.text(max_size=4), max_size=5).map(" ".join),
                 max_size=8).map("\n".join).map(lambda text: text.encode("utf-8"))
_CONFIG = st.dictionaries(
    st.sampled_from(["token_col", "tag_col", "types", "repair", "format", "epochs", "constrained"]),
    st.sampled_from(["-9", "-1", "7", "0", "abc", "", "PER,LOC", "strict", "yes"])
    | st.text(max_size=4),
    max_size=3,
).map(lambda entries: "".join(f"{k}={v}\n" for k, v in entries.items()).encode("utf-8"))
HOSTILE = st.binary(max_size=120) | _TEXT


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["evaluate", "inspect"]),
       gold=st.just(TINY.encode("utf-8")) | HOSTILE,
       pred=st.just(TINY.encode("utf-8")) | HOSTILE,
       config=st.none() | _CONFIG | HOSTILE)
def test_arbitrary_bytes_end_in_an_exit_code(command, gold, pred, config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, data in (("--gold", gold), ("--pred", pred), ("--config", config)):
            if data is not None:
                path = os.path.join(tmp, flag[2:])
                with open(path, "wb") as handle:
                    handle.write(data)
                argv += [flag, path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA)


# two-dimensional embeddings of every TINY sentence
TINY_EMB = "dim 2\n" + "".join(
    f"# id {s.id}\n" + "".join(f"{0.5 * j} {-1.0 + j}\n" for j in range(len(s))) + "\n"
    for s in parse_conll(TINY, VOC))


@pytest.fixture(scope="module")
def tiny_models(tmp_path_factory):
    """One-epoch checkpoints on TINY: a CRF-headed and a linear model on a
    trainable table, and a CRF-headed model on TINY_EMB."""
    root = tmp_path_factory.mktemp("models")
    data = root / "tiny.conll"
    data.write_text(TINY, encoding="utf-8")
    emb = root / "tiny.emb"
    emb.write_text(TINY_EMB, encoding="utf-8")
    models = {}
    for name, arch, extra in (("crf", "crf", []), ("linear", "linear", []),
                              ("crf-emb", "crf", ["--embeddings", str(emb)])):
        models[name] = str(root / f"{name}.ckpt")
        argv = ["train", "--train-file", str(data), "--dev-file", str(data), "--checkpoint",
                models[name], "--epochs", "1", "--arch", arch, "--fc-size", "8"] + extra
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == cli.EXIT_OK
    return models


def _corrupt(blob: bytes, edits) -> bytes:
    """blob with each (position, byte) edit applied, positions counted from the
    end (so 0 and 1 are the sign-and-exponent bytes of the last float) and
    taken modulo its length."""
    data = bytearray(blob)
    for position, value in edits:
        data[-1 - position % len(data)] = value
    return bytes(data)


_EDITS = st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(["crf", "linear", "crf-emb"]),
       data=st.just(TINY.encode("utf-8")) | HOSTILE,
       config=st.none() | _CONFIG | HOSTILE,
       embeddings=st.none() | st.just(TINY_EMB.encode("utf-8")) | HOSTILE
       | _EDITS.map(lambda edits: _corrupt(TINY_EMB.encode("utf-8"), edits)),
       edits=_EDITS,
       sealed=st.sampled_from([None, "header", "payload"]),
       constrained=st.sampled_from([None, True, False]))
@example(model="crf", data=b" #tag _ _ O\nx _ _ O\n", config=None, embeddings=None, edits=[],
         sealed=None, constrained=None)
# the last weight of the model becomes 1.7e308, which overflows the emissions in
# the matmul, or nan, which load refuses: either way the run must exit 2 with no
# numpy warning (an error here)
@example(model="crf-emb", data=TINY.encode("utf-8"), config=None,
         embeddings=TINY_EMB.encode("utf-8"), edits=[(0, 0x7F), (1, 0xEF)], sealed="payload",
         constrained=None)
@example(model="crf-emb", data=TINY.encode("utf-8"), config=None,
         embeddings=TINY_EMB.encode("utf-8"), edits=[(0, 0xFF), (1, 0xFF)], sealed="payload",
         constrained=True)
def test_predict_on_arbitrary_bytes_ends_in_an_exit_code(tiny_models, model, data, config,
                                                         embeddings, edits, sealed, constrained):
    """Hostile input, config and embedding bytes, against checkpoints with up
    to four bytes overwritten: anywhere, which the checksum refuses, or in the
    header or the payload of a checkpoint resealed after the edits."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(tiny_models[model], "rb") as handle:
            checkpoint = handle.read()
        if sealed is None:
            checkpoint = _corrupt(checkpoint, edits)
        else:
            checkpoint = resealed(checkpoint, **{sealed: lambda part: _corrupt(part, edits)})
        output = os.path.join(tmp, "out.conll")
        argv = ["predict", "--output", output]
        argv += {None: [], True: ["--constrained"], False: ["--no-constrained"]}[constrained]
        for flag, content in (("--checkpoint", checkpoint), ("--input", data),
                              ("--config", config), ("--embeddings", embeddings)):
            if content is not None:
                path = os.path.join(tmp, flag[2:])
                with open(path, "wb") as handle:
                    handle.write(content)
                argv += [flag, path]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC)
        assert "Traceback" not in stderr.getvalue()
        if code != cli.EXIT_OK:  # a failed run fails before it writes output
            assert not os.path.exists(output)


def test_checkpoint_with_a_rejected_setting_exits_two(capsys, tiny_models, tiny, tmp_path):
    """In a checkpoint, a setting TrainConfig rejects is corrupted metadata."""
    with open(tiny_models["crf"], "rb") as handle:
        blob = handle.read()
    assert blob.count(b'"epochs": 1,') == 1
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(resealed(blob, header=lambda h: h.replace(b'"epochs": 1,', b'"epochs": 0,')))
    code, out, err = run(capsys, "predict", "--checkpoint", str(bad), "--input", tiny)
    assert (code, out) == (2, "")
    assert "corrupt checkpoint metadata: epochs must be >= 1, got 0" in err


def test_checkpoint_with_a_non_finite_array_exits_two_naming_file_and_array(capsys, tiny_models,
                                                                            tiny, tmp_path):
    """A non-finite weight is corrupted bytes: load refuses it before decoding."""
    with open(tiny_models["linear"], "rb") as handle:
        blob = handle.read()
    # arrays are stored in name order, so the payload ends with fc.w2's last weight
    assert max(load_checkpoint(tiny_models["linear"]).params) == "fc.w2"
    bad = tmp_path / "bad.ckpt"
    for value in (math.nan, math.inf):
        bad.write_bytes(resealed(blob, payload=lambda p: p[:-8] + struct.pack("<d", value)))
        code, out, err = run(capsys, "predict", "--checkpoint", str(bad), "--input", tiny)
        assert (code, out) == (2, "")
        assert err == f"nerchain: error: {bad}: array 'fc.w2' holds a non-finite value\n"


def _without(key):
    return lambda h: json.dumps({k: v for k, v in json.loads(h).items() if k != key}).encode()


@pytest.mark.parametrize("edit", [
    lambda h: b"[" * 100_000,
    lambda h: h.replace(b'"crf.trans": [15, 15]', b'"crf.trans": [Infinity, 15]'),
    lambda h: h.replace(b'"crf.trans": [15, 15]', b'"crf.trans": [-1, 15]'),
    lambda h: h.replace(b'"crf.trans": [15, 15]', b'"crf.trans": [15.0, 15]'),
    lambda h: h.replace(b'"crf.trans": [15, 15]', b'"crf.trans": [0, 1000000000000000000000]'),
    lambda h: b"[" + h + b"]",
    _without("best_f1"),
    _without("config"),
], ids=["deep-nesting", "infinite-extent", "negative-extent", "float-extent", "huge-extent",
        "list", "missing-best-f1", "missing-config"])
def test_crafted_header_with_a_valid_checksum_exits_two(capsys, tiny_models, tiny, tmp_path, edit):
    with open(tiny_models["crf"], "rb") as handle:
        blob = handle.read()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(resealed(blob, header=edit))
    assert bad.read_bytes() != blob
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(bad))}: corrupt checkpoint"):
        load_checkpoint(bad)
    code, out, err = run(capsys, "predict", "--checkpoint", str(bad), "--input", tiny)
    assert (code, out) == (2, "")
    assert err.startswith(f"nerchain: error: {bad}: corrupt checkpoint") and "Traceback" not in err


def test_truncated_checkpoint_exits_two_naming_the_file(capsys, tiny, tmp_path):
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(b"NERCHKP")
    code, out, err = run(capsys, "predict", "--checkpoint", str(bad), "--input", tiny)
    assert (code, out) == (2, "")
    assert err == f"nerchain: error: {bad}: corrupt checkpoint: truncated while reading header\n"


# three-dimensional embeddings of every TINY sentence
TINY_EMB_3 = "dim 3\n" + "".join(
    f"# id {s.id}\n" + "".join(f"{0.5 * j} {-1.0 + j} 1.0\n" for j in range(len(s))) + "\n"
    for s in parse_conll(TINY, VOC))


@pytest.mark.parametrize("model, config, embeddings, message", [
    ("crf", "types=PER,LOC\n", None, "checkpoint label space has 13 tags "
     "(PER,LOC,GRP,CORP,PROD,CW), vocabulary has 5 (PER,LOC)"),
    ("crf-emb", "", None, "model was trained on ingested embeddings; none provided"),
    ("crf-emb", "", TINY_EMB_3, "embedding dimension 3 != checkpoint dimension 2"),
], ids=["label-space", "no-embeddings", "embedding-width"])
def test_checkpoint_that_does_not_fit_the_input_exits_two_naming_the_file(
        capsys, tiny_models, tiny, tmp_path, model, config, embeddings, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = ["predict", "--checkpoint", tiny_models[model], "--input", tiny, "--config", str(cfg)]
    if embeddings is not None:
        emb = tmp_path / "input.emb"
        emb.write_text(embeddings)
        argv += ["--embeddings", str(emb)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"nerchain: error: {tiny_models[model]}: {message}\n"


# every flag that takes a value, on each command that has it; the constrained
# switch takes none and has its own test below
_FLAGGED = [(command, name) for name, setting in cli._SETTINGS.items()
            for command in setting.flags if name != "constrained"]
_CHOICES = sorted({choice for setting in cli._SETTINGS.values()
                   for choice in setting.choices or ()})


def _setting_from(argv, name):
    """("value", v) for the value Settings gives name under argv, or ("exit",
    code) if argv is rejected."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return "value", getattr(cli.Settings(cli.build_parser().parse_args(argv)), name)
    except SystemExit as exc:
        return "exit", exc.code
    except cli.UsageError:
        return "exit", cli.EXIT_USAGE


@settings(max_examples=300, deadline=None)
@given(flagged=st.sampled_from(_FLAGGED),
       value=st.sampled_from(["-1", "0", "1", "0.5", "1e-6", "nan", "inf", "abc", "", *_CHOICES])
       | st.text(max_size=4).filter(lambda text: text == text.strip() and text.isprintable()))
# argparse on Python 3.11 turned `--token-col=--` into [], which reached
# parse_conll and ended in a traceback
@example(flagged=("train", "token_col"), value="--")
@example(flagged=("evaluate", "gold"), value="--")
@example(flagged=("evaluate", "format"), value="--")
def test_flag_and_config_key_accept_the_same_values(flagged, value):
    command, name = flagged
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(f"{name}={value}\n")
        from_flag = _setting_from([command, f"--{name.replace('_', '-')}={value}"], name)
        from_file = _setting_from([command, "--config", cfg], name)
    assert repr(from_flag) == repr(from_file)  # repr: nan equals nan
    assert from_flag[0] == "value" or from_flag[1] == cli.EXIT_USAGE


@pytest.mark.parametrize("flags, config, expected", [
    ([], "", None), (["--constrained"], "", True), (["--no-constrained"], "", False),
    ([], "constrained=yes\n", True), ([], "constrained=no\n", False),
    (["--constrained"], "constrained=no\n", True),
    (["--no-constrained"], "constrained=yes\n", False),
])
def test_constrained_flag_and_config_key_agree(tmp_path, flags, config, expected):
    """--constrained is constrained=yes, --no-constrained is constrained=no, a
    flag wins over the file, and neither leaves None, the head's default."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = ["predict", "--config", str(cfg), *flags]
    assert _setting_from(argv, "constrained") == ("value", expected)


_TRAIN_CONFIG = st.dictionaries(
    st.sampled_from(["arch", "dim", "dropout", "lr_min", "lr_max", "cycle_length", "seed",
                     "min_count", "types", "token_col", "tag_col", "format", "epochs"]),
    st.sampled_from(["-1", "0", "1", "3", "0.5", "1e308", "nan", "inf", "abc", "", "crf",
                     "linear", "PER,LOC", "kv"]) | st.text(max_size=4),
    max_size=4,
).map(lambda entries: "".join(f"{k}={v}\n" for k, v in entries.items()).encode("utf-8"))


_TINY_OR_HOSTILE = st.sampled_from([TINY.encode("utf-8")] * 2) | HOSTILE  # TINY 2 in 3


@settings(max_examples=200, deadline=None)
@given(arch=st.sampled_from(["crf", "bilstm-crf", "linear"]),
       train=_TINY_OR_HOSTILE,
       dev=_TINY_OR_HOSTILE,
       config=st.none() | st.none() | _TRAIN_CONFIG | HOSTILE,
       embeddings=st.none() | st.just(TINY_EMB.encode("utf-8")) | HOSTILE
       | _EDITS.map(lambda edits: _corrupt(TINY_EMB.encode("utf-8"), edits)))
# an empty train file divided the epoch's loss by zero sentences
@example(arch="crf", train=b"", dev=TINY.encode("utf-8"), config=None, embeddings=None)
# numpy rejects a negative seed with a ValueError of its own
@example(arch="crf", train=TINY.encode("utf-8"), dev=TINY.encode("utf-8"), config=b"seed=-1\n",
         embeddings=None)
def test_train_on_arbitrary_bytes_ends_in_an_exit_code(arch, train, dev, config, embeddings):
    """Hostile train, dev, config and embedding bytes; the flags keep the model
    tiny (one epoch, hidden and FC width 4), and a config cannot override them."""
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = os.path.join(tmp, "model.ckpt")
        argv = ["train", "--checkpoint", checkpoint, "--arch", arch, "--epochs", "1",
                "--hidden", "4", "--fc-size", "4"]
        for flag, content in (("--train-file", train), ("--dev-file", dev),
                              ("--config", config), ("--embeddings", embeddings)):
            if content is not None:
                path = os.path.join(tmp, flag[2:])
                with open(path, "wb") as handle:
                    handle.write(content)
                argv += [flag, path]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC)
        assert "Traceback" not in stderr.getvalue()
        if code != cli.EXIT_OK:  # a failed run writes no checkpoint
            assert not os.path.exists(checkpoint)
