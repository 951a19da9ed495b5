import io
import tracemalloc

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
from nerchain.tagscheme import EntityTypeSet, TagSchemeError, expand_bio

from oracles import random_corpus, reference_load_embeddings, reference_parse_conll

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

    def test_empty_id_is_a_data_error(self):
        for line in ("# id ", "# id", "# id \t ", "# id\r"):
            with pytest.raises(ConllError, match="^line 2: empty sentence id$"):
                parse_conll(f"a _ _ O\n{line}\nb _ _ O\n", VOC)

    def test_id_line_needs_a_space_after_id(self):
        corpus = parse_conll("# idea\n# id\tx\na _ _ O\n", VOC)
        assert corpus.sentences[0].id == "0"  # both are comments

    def test_row_errors_keep_their_messages(self):
        for text, kwargs, message in (
            ("a _ _ O\nb\n", {}, "line 2: too few fields for tag column: 'b'"),
            ("a _ O\r\n", {"token_column": 3}, "line 1: expected token in column 3: 'a _ O'"),
            ("a O\n", {"token_column": 1, "tag_column": -1},
             "line 1: token column 1 and tag column -1 are the same field: 'a O'"),
            ("a _ _ O\nb _ _ B-NOPE\n", {}, "line 2: unknown tag name 'B-NOPE'"),
        ):
            with pytest.raises(ConllError) as caught:
                parse_conll(text, VOC, **kwargs)
            assert str(caught.value) == message


    def test_token_starting_with_hash_is_a_data_error(self):
        # write_conll refuses such a token, so the reader does not hand it out
        for text, kwargs, message in (
            (" #tag _ _ O\nx _ _ O\n", {}, "line 1: token '#tag' starts with '#'"),
            ("a _ _ O\n\t# _ _ O\n", {}, "line 2: token '#' starts with '#'"),
            ("a #b\n", {"token_column": 1, "has_labels": False},
             "line 1: token '#b' starts with '#'"),
            ("x _ #y O\n", {"token_column": 2}, "line 1: token '#y' starts with '#'"),
        ):
            with pytest.raises(ConllError) as caught:
                parse_conll(text, VOC, **kwargs)
            assert str(caught.value) == message

    def test_hash_elsewhere_in_a_row_is_kept(self):
        corpus = parse_conll("a#b _ _ O\nx #y _ O\n", VOC)
        assert corpus.sentences[0].tokens == ("a#b", "x")
        out = io.StringIO()
        write_conll(corpus, out)
        assert parse_conll(out.getvalue(), VOC).sentences[0].tokens == ("a#b", "x")


def test_corpus_names_the_first_out_of_range_tag():
    for tags, bad in (((0, 99, -1), 99), ((-1, 99, 0), -1), ((0, VOC.k), VOC.k)):
        with pytest.raises(ConllError, match=f"^sentence 's0': tag index {bad} out of range$"):
            Corpus((Sentence("s0", ("a", "b", "c")[:len(tags)], tags),), VOC)


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

    def test_unserializable_tokens_and_tags_keep_their_errors(self):
        for token in ("a b", "a\u2028b", "a\x1cb", "", "#a", " "):
            corpus = Corpus((Sentence("s0", (token,), (0,)),), VOC)
            with pytest.raises(ConllError, match="cannot be serialized"):
                write_conll(corpus, io.StringIO())
        corpus = Corpus((Sentence("s0", ("a",)),), VOC)
        # the virtual START and STOP states are no tags of a file either
        for index in (VOC.start_index, VOC.stop_index, VOC.k + 2):
            with pytest.raises(TagSchemeError, match=f"^tag index out of range: {index}$"):
                write_conll(corpus, io.StringIO(), tags=[[index]])

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
        # the one-pass lookup that embed uses gives the same indices
        sequence = (probe, *tokens, probe)
        indices = vocab.indices(sequence)
        assert indices.dtype == np.intp
        assert indices.tolist() == [vocab.lookup(t) for t in sequence]


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

    def test_empty_id_is_a_data_error(self):
        corpus = parse_conll(MINIMAL, VOC)
        for line in ("# id ", "# id", "  # id \t"):
            with pytest.raises(EmbeddingError, match="^line 2: empty sentence id$"):
                load_embeddings(f"dim 1\n{line}\n1\n2\n", corpus)

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


# ---------------------------------------------------------------------------
# the streamed readers against the per-line references in oracles.py


def outcome(fn, *args):
    """What a reader returns, or the class and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # any difference in kind or text is a failure
        return type(exc), str(exc)


_ROW_FIELDS = st.sampled_from(["a", "b", "_", "O", "B-PER", "I-PER", "B-LOC", "I-XYZ",
                              "#", "x#", "#x"])
_SEPARATOR = st.sampled_from([" ", "  ", "\t", "\xa0"])
_CONLL_LINE = st.one_of(
    st.sampled_from(["", " ", "\t", "\r", "# id s1", "# id s2", "# id s1 ", "# id ", "# id",
                     "# id\t", "# id\tx", "#  id x", "# idx", "# comment", "#", "  # id s1"]),
    st.tuples(st.lists(_ROW_FIELDS, min_size=1, max_size=5), _SEPARATOR,
              st.sampled_from(["", " ", "\r"])).map(lambda t: t[1].join(t[0]) + t[2]),
)


@given(st.lists(_CONLL_LINE, max_size=14), st.booleans(), st.integers(-4, 4),
       st.integers(-4, 4), st.booleans())
@settings(max_examples=500, deadline=None)
def test_parse_conll_matches_the_per_line_reference(lines, final_newline, token_column,
                                                    tag_column, has_labels):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    args = (VOC, token_column, tag_column, has_labels)
    assert outcome(parse_conll, text, *args) == outcome(reference_parse_conll, text, *args)


EMB_CORPUS = parse_conll("# id s1\na _ _ O\nb _ _ O\n\n# id s2\nc _ _ O\n\n"
                         "# id s3\na _ _ O\nb _ _ O\nc _ _ O\n", VOC)
# spellings float() accepts or rejects in unusual ways; numpy must agree on each
ODD_VALUES = ["1_0", "\u0661\u0662", "infinity", "-Infinity", "0x10", "1e", "\uff11\uff12", "nan",
              "1e999", "-0", "+.5", "5.", ".", "_1", "1__0", "abc", "#", "1e-400", "9" * 400,
              "0.1000000000000000055511151231257827", "2.2250738585072011e-308"]
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_EMB_LINE = st.one_of(
    st.sampled_from(["", "  ", "\t", "dim 2", "# id s1", "# id s2", "# id s9", "# id ", "# id",
                     "  # id s3 ", "#id s1", "# id\ts1", "#"]),
    st.tuples(st.lists(_FINITE | st.sampled_from(ODD_VALUES), max_size=4), _SEPARATOR)
    .map(lambda t: t[1].join(t[0])),
)


@st.composite
def embedding_files(draw):
    """Valid files for EMB_CORPUS with a few lines replaced, inserted or deleted."""
    dim = draw(st.integers(1, 3))
    value = _FINITE | st.sampled_from(ODD_VALUES) if draw(st.booleans()) else _FINITE
    lines = [draw(st.sampled_from([f"dim {dim}", f" dim {dim} ", "dim 0", "dim x"]))
             if draw(st.integers(0, 9)) == 0 else f"dim {dim}"]
    for sent in draw(st.permutations(EMB_CORPUS.sentences))[:draw(st.integers(0, 3))]:
        lines.append(f"# id {sent.id}")
        for _ in sent.tokens:
            lines.append(draw(_SEPARATOR).join(draw(value) for _ in range(dim)))
        lines.append(draw(st.sampled_from(["", " "])))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["insert", "replace", "delete"]))
        if kind == "insert":
            lines.insert(pos, draw(_EMB_LINE))
        elif pos < len(lines):
            if kind == "replace":
                lines[pos] = draw(_EMB_LINE)
            else:
                del lines[pos]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def matrix_bits(result):
    """An EmbeddingSet as comparable bytes; anything else unchanged."""
    if not isinstance(result, EmbeddingSet):
        return result
    return result.dim, [(sid, m.dtype, m.shape, m.tobytes()) for sid, m in result.matrices.items()]


@given(embedding_files())
@settings(max_examples=500, deadline=None)
def test_load_embeddings_matches_the_per_line_reference(text):
    assert matrix_bits(outcome(load_embeddings, text, EMB_CORPUS)) == \
        matrix_bits(outcome(reference_load_embeddings, text, EMB_CORPUS))


# every id the readers accept: non-empty, no surrounding whitespace, one line
_IDS = st.text(min_size=1, max_size=8).filter(lambda s: s == s.strip() and "\n" not in s)


@given(st.lists(_IDS, min_size=1, max_size=5, unique=True), st.integers(0, 2**32 - 1),
       st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_written_files_read_back_with_their_ids(ids, seed, dim):
    rng = np.random.default_rng(seed)
    corpus = Corpus(tuple(
        Sentence(sid, tuple(rng.choice(["a", "b", "c"], n).tolist()),
                 tuple(rng.integers(0, VOC.k, n).tolist()))
        for sid, n in zip(ids, rng.integers(1, 6, len(ids)).tolist())), VOC)
    out = io.StringIO()
    write_conll(corpus, out)
    assert parse_conll(out.getvalue(), VOC) == corpus
    # finite values from subnormals up to about 1e300
    matrices = {s.id: rng.standard_normal((len(s), dim)) * 10.0 ** rng.integers(-320, 300)
                for s in corpus}
    out = io.StringIO()
    write_embeddings(EmbeddingSet(dim, matrices), out)
    again = load_embeddings(out.getvalue(), corpus)
    assert matrix_bits(again) == matrix_bits(EmbeddingSet(dim, matrices))


def read_traced(path, reader, *args):
    """reader's result over the open file, and the peak of the memory it traced."""
    with open(path, encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            result = reader(handle, *args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_readers_stream_their_input(tmp_path):
    # a reader that held the whole file in memory would peak above its size;
    # the parsed results themselves take about a fifth of it
    conll, emb = tmp_path / "big.conll", tmp_path / "big.emb"
    row, value = "a" + " _" * 100 + " O\n", "0." + "5" * 40
    with open(conll, "w", encoding="utf-8") as handle:
        for i in range(1000):
            handle.write(f"# id s{i}\n" + row * 20 + "\n")
    with open(emb, "w", encoding="utf-8") as handle:
        handle.write("dim 8\n")
        for i in range(1000):
            handle.write(f"# id s{i}\n" + (" ".join([value] * 8) + "\n") * 20 + "\n")
    corpus, peak = read_traced(conll, parse_conll, VOC)
    assert len(corpus) == 1000
    assert peak < conll.stat().st_size / 2, (peak, conll.stat().st_size)
    embeddings, peak = read_traced(emb, load_embeddings, corpus)
    assert len(embeddings.matrices) == 1000
    assert peak < emb.stat().st_size / 2, (peak, emb.stat().st_size)
