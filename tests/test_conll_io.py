import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerchain.conll_io import (
    ConllError,
    Corpus,
    EmbeddingError,
    EmbeddingSet,
    PAD_INDEX,
    Sentence,
    UNK_INDEX,
    build_token_vocabulary,
    load_embeddings,
    parse_conll,
    write_conll,
    write_embeddings,
)
from nerchain.tagscheme import EntityTypeSet, expand_bio

from oracles import random_corpus

VOC = expand_bio(EntityTypeSet())

MINIMAL = "# id s1\nNew _ _ B-LOC\nYork _ _ I-LOC\n\n"


class TestParseConll:
    def test_minimal_block(self):
        corpus = parse_conll(MINIMAL, VOC)
        assert len(corpus) == 1
        sent = corpus.sentences[0]
        assert sent.id == "s1"
        assert sent.tokens == ("New", "York")
        assert sent.gold_tags == (VOC.index("B-LOC"), VOC.index("I-LOC"))

    def test_unknown_tag_named(self):
        with pytest.raises(ConllError, match="B-XYZ"):
            parse_conll("New _ _ B-XYZ\n", VOC)

    def test_auto_numbering(self):
        corpus = parse_conll("a _ _ O\n\nb _ _ O\n", VOC)
        assert [s.id for s in corpus] == ["0", "1"]

    def test_empty_blocks_skipped(self):
        corpus = parse_conll("\n\na _ _ O\n\n\n\nb _ _ O\n\n\n", VOC)
        assert len(corpus) == 2

    def test_comment_lines_ignored(self):
        corpus = parse_conll("# some comment\n# id s9\na _ _ O\n", VOC)
        assert corpus.sentences[0].id == "s9"

    def test_too_few_fields(self):
        with pytest.raises(ConllError, match="line 1"):
            parse_conll("lonely\n", VOC)

    def test_token_column_out_of_range(self):
        with pytest.raises(ConllError):
            parse_conll("a O\n", VOC, token_column=5)

    def test_token_column_equal_to_tag_column(self):
        for text, token_column, tag_column in (("a _ O\n", -1, -1), ("a O\n", -2, 0),
                                               ("a O\n", 1, -1)):
            with pytest.raises(ConllError, match="line 1: .* are the same field"):
                parse_conll(text, VOC, token_column=token_column, tag_column=tag_column)

    def test_custom_columns(self):
        corpus = parse_conll("x a B-PER\nx b I-PER\n", VOC, token_column=1, tag_column=2)
        assert corpus.sentences[0].tokens == ("a", "b")

    def test_unlabeled(self):
        corpus = parse_conll("New\nYork\n", VOC, has_labels=False)
        assert corpus.sentences[0].gold_tags is None

    def test_duplicate_ids_rejected(self):
        text = "# id s1\na _ _ O\n\n# id s1\nb _ _ O\n"
        with pytest.raises(ConllError, match="duplicate"):
            parse_conll(text, VOC)

    def test_large_file_sentence_count(self):
        # train-set scale: 15300 sentences survive a parse intact
        blocks = []
        for i in range(15300):
            blocks.append(f"# id s{i}\ntok{i % 97} _ _ O\nx _ _ B-PER\n")
        corpus = parse_conll("\n".join(blocks), VOC)
        assert len(corpus) == 15300

    def test_order_preserved(self):
        corpus = parse_conll("# id z\na _ _ O\n\n# id a\nb _ _ O\n", VOC)
        assert [s.id for s in corpus] == ["z", "a"]


class TestWriteConll:
    def test_round_trip_minimal(self):
        corpus = parse_conll(MINIMAL, VOC)
        out = io.StringIO()
        write_conll(corpus, out)
        again = parse_conll(out.getvalue(), VOC)
        assert [s.id for s in again] == ["s1"]
        assert again.sentences[0].tokens == corpus.sentences[0].tokens
        assert again.sentences[0].gold_tags == corpus.sentences[0].gold_tags

    def test_empty_corpus(self):
        out = io.StringIO()
        write_conll(Corpus((), VOC), out)
        assert out.getvalue() == ""

    def test_missing_predictions_error(self):
        corpus = parse_conll("a\n", VOC, has_labels=False)
        with pytest.raises(ConllError, match="missing"):
            write_conll(corpus, io.StringIO())

    def test_explicit_tags_override(self):
        corpus = parse_conll(MINIMAL, VOC)
        out = io.StringIO()
        write_conll(corpus, out, tags=[[0, 0]])
        again = parse_conll(out.getvalue(), VOC)
        assert again.sentences[0].gold_tags == (0, 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, VOC, 100)
        out = io.StringIO()
        write_conll(corpus, out)
        again = parse_conll(out.getvalue(), VOC)
        assert len(again) == len(corpus)
        for a, b in zip(corpus, again):
            assert (a.id, a.tokens, a.gold_tags) == (b.id, b.tokens, b.gold_tags)


class TestTokenVocabulary:
    def test_min_count_one(self):
        corpus = Corpus((Sentence("s0", ("a", "b", "a")),), VOC)
        vocab = build_token_vocabulary(corpus, 1)
        assert vocab.tokens == ("a", "b")
        assert len(vocab) == 4  # two reserved slots

    def test_min_count_two_filters(self):
        corpus = Corpus((Sentence("s0", ("a", "b", "a")),), VOC)
        vocab = build_token_vocabulary(corpus, 2)
        assert vocab.tokens == ("a",)
        assert vocab.lookup("b") == UNK_INDEX

    def test_min_count_validated(self):
        corpus = Corpus((Sentence("s0", ("a",)),), VOC)
        with pytest.raises(ConllError):
            build_token_vocabulary(corpus, 0)

    def test_reserved_indices_distinct(self):
        assert PAD_INDEX != UNK_INDEX
        vocab = build_token_vocabulary(Corpus((Sentence("s0", ("a",)),), VOC), 1)
        assert vocab.lookup("a") not in (PAD_INDEX, UNK_INDEX)

    @given(st.lists(st.text(alphabet="xyz", min_size=1, max_size=3), min_size=1, max_size=30),
           st.text(alphabet="quv", min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_oov_lookup_is_unk(self, tokens, probe):
        corpus = Corpus((Sentence("s0", tuple(tokens)),), VOC)
        vocab = build_token_vocabulary(corpus, 1)
        if probe in tokens:
            assert vocab.lookup(probe) >= 2
        else:
            assert vocab.lookup(probe) == UNK_INDEX


class TestEmbeddings:
    def test_minimal_load(self):
        corpus = parse_conll(MINIMAL, VOC)
        text = "dim 4\n# id s1\n0.1 0.2 0.3 0.4\n1 2 3 4\n"
        emb = load_embeddings(text, corpus)
        assert emb.dim == 4
        assert emb["s1"].shape == (2, 4)
        assert emb["s1"][1, 3] == 4.0

    def test_row_count_mismatch(self):
        corpus = parse_conll(MINIMAL, VOC)
        text = "dim 2\n# id s1\n1 2\n3 4\n5 6\n"
        with pytest.raises(EmbeddingError, match="3 rows"):
            load_embeddings(text, corpus)

    def test_dim_mismatch(self):
        corpus = parse_conll(MINIMAL, VOC)
        with pytest.raises(EmbeddingError, match="dim"):
            load_embeddings("dim 3\n# id s1\n1 2\n3 4\n", corpus)

    def test_unknown_id(self):
        corpus = parse_conll(MINIMAL, VOC)
        with pytest.raises(EmbeddingError, match="s999"):
            load_embeddings("dim 1\n# id s999\n1\n", corpus)

    def test_non_finite_rejected(self):
        corpus = parse_conll(MINIMAL, VOC)
        with pytest.raises(EmbeddingError, match="non-finite"):
            load_embeddings("dim 1\n# id s1\nnan\n1\n", corpus)

    def test_missing_header(self):
        corpus = parse_conll(MINIMAL, VOC)
        with pytest.raises(EmbeddingError, match="header"):
            load_embeddings("# id s1\n1 1\n2 2\n", corpus)

    def test_duplicate_id_rejected(self):
        corpus = parse_conll("# id a\nx _ _ O\n", VOC)
        with pytest.raises(EmbeddingError, match="duplicate"):
            load_embeddings("dim 1\n# id a\n1\n\n# id a\n2\n", corpus)

    def test_malformed_numbers_name_the_line(self):
        corpus = parse_conll(MINIMAL, VOC)
        for text, line in (("dim x\n", 1), ("dim " + "9" * 5000 + "\n", 1),
                           ("dim 2\n# id s1\n1 abc\n3 4\n", 3)):
            with pytest.raises(EmbeddingError, match=f"^line {line}: "):
                load_embeddings(text, corpus)

    @given(st.one_of(
        st.text(max_size=80),
        st.lists(st.sampled_from(["dim", "# id ", "s1", " ", "\n", "2", "-1", "0.5", "x",
                                  "abc", "nan", "1e999", "0x1f", "9" * 5000]),
                 max_size=30).map("".join),
    ))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_embedding_error(self, text):
        corpus = parse_conll(MINIMAL, VOC)
        try:
            load_embeddings(text, corpus)
        except EmbeddingError:
            pass

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_write_load_round_trip_lossless(self, seed, dim):
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, VOC, 10)
        matrices = {s.id: rng.standard_normal((len(s), dim)) for s in corpus}
        emb = EmbeddingSet(dim, matrices)
        out = io.StringIO()
        write_embeddings(emb, out)
        again = load_embeddings(out.getvalue(), corpus)
        assert again.dim == dim
        for sid, matrix in matrices.items():
            assert np.array_equal(again[sid], matrix)
