import os

import pytest
from hypothesis import given, settings, strategies as st

from test_acceptance import cli_dir  # noqa: F401  the criterion-9 input files

from wschreier.catalog import catalog_monoids, chain_lattice
from wschreier.extension import direct_product_extension, verify_split_extension
from wschreier.io import (
    ParseError,
    load_action,
    load_extension,
    load_hom,
    load_monoid,
    load_wact_pair,
    parse_monoid,
    serialize_action,
    serialize_extension,
    serialize_hom,
    serialize_monoid,
    serialize_wact_pair,
)
from wschreier.monoid import FormatError, MonoidHom
from wschreier.waction import ActionTable, AdmissibleRelation, WActPair

SL3_TEXT = """\
monoid sl3 3
identity 0
row 0: 0 1 2
row 1: 1 1 2
row 2: 2 2 2
labels: 1 a 0
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def mon_dir(tmp_path, sl3, sl2):
    write(tmp_path / "sl3.mon", serialize_monoid(sl3, "sl3"))
    write(tmp_path / "sl2.mon", serialize_monoid(sl2, "sl2"))
    return tmp_path


class TestMonoidFormat:
    def test_parse(self, sl3):
        M = parse_monoid(SL3_TEXT)
        assert M == sl3
        assert M.labels == ("1", "a", "0")

    def test_round_trip(self, sl3):
        assert parse_monoid(serialize_monoid(sl3, "sl3")) == sl3

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\nmonoid m 1\nidentity 0\n\n# mid\nrow 0: 0\n"
        assert parse_monoid(text).size == 1

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_monoid("monoid m x\nidentity 0\n", file="bad.mon")
        assert info.value.file == "bad.mon"
        assert info.value.line == 1
        assert info.value.col == 10
        assert str(info.value).startswith("bad.mon:1:10:")

    def test_wrong_header_keyword(self):
        with pytest.raises(ParseError) as info:
            parse_monoid("monoidx m 2\n")
        assert info.value.line == 1 and info.value.col == 1

    def test_identity_out_of_range(self):
        with pytest.raises(ParseError) as info:
            parse_monoid("monoid m 2\nidentity 5\nrow 0: 0 1\nrow 1: 1 0\n")
        assert info.value.line == 2

    def test_row_entry_out_of_range(self):
        with pytest.raises(ParseError) as info:
            parse_monoid("monoid m 2\nidentity 0\nrow 0: 0 7\nrow 1: 1 0\n")
        assert info.value.line == 3 and info.value.col == 10

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_monoid("monoid m 2\nidentity 0\nrow 0: 0 1 1\nrow 1: 1 0\n")

    def test_missing_row(self):
        with pytest.raises(ParseError) as info:
            parse_monoid("monoid m 2\nidentity 0\nrow 0: 0 1\n")
        assert "end of file" in str(info.value)

    def test_row_out_of_order(self):
        # the row label is read before its entries: row 2 where row 1 belongs
        with pytest.raises(ParseError) as info:
            parse_monoid("monoid m 2\nidentity 0\nrow 0: 0 1\nrow 2: 1 1\n", "m.mon")
        assert str(info.value) == "m.mon:4:5: expected row 1, got row 2"

    def test_trailing_line_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_monoid("monoid m 1\nidentity 0\nrow 0: 0\nrow 1: 0\n")
        assert "trailing" in str(info.value)

    def test_label_count_checked(self):
        with pytest.raises(ParseError):
            parse_monoid("monoid m 1\nidentity 0\nrow 0: 0\nlabels: a b\n")

    def test_law_violations_rejected_when_validating(self):
        text = "monoid m 2\nidentity 0\nrow 0: 0 1\nrow 1: 1 1\n"
        bad = text.replace("row 0: 0 1", "row 0: 0 0")
        with pytest.raises(ParseError) as info:
            parse_monoid(bad)
        assert "not a monoid" in str(info.value)
        shape_only = parse_monoid(bad, validate=False)
        assert shape_only.table == ((0, 0), (1, 1))

    def test_parse_error_is_a_format_error(self):
        with pytest.raises(FormatError):
            parse_monoid("nope\n")

    @given(st.sampled_from(catalog_monoids(4)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_over_catalog(self, M):
        assert parse_monoid(serialize_monoid(M)) == M


class TestHomFormat:
    def test_round_trip(self, mon_dir, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        path = write(mon_dir / "f.map", serialize_hom(f, "sl2.mon", "sl3.mon", "f"))
        g = load_hom(path)
        assert g.source == sl2 and g.target == sl3 and g.map == (0, 1)

    def test_references_resolve_relative_to_file(self, tmp_path, sl2, sl3, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        write(sub / "sl2.mon", serialize_monoid(sl2, "sl2"))
        write(tmp_path / "sl3.mon", serialize_monoid(sl3, "sl3"))
        f = MonoidHom(sl2, sl3, (0, 2))
        path = write(sub / "f.map", serialize_hom(f, "sl2.mon", "../sl3.mon", "f"))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert load_hom(path).map == (0, 2)

    def test_non_hom_map_rejected(self, mon_dir):
        text = "map f\nsource sl3.mon\ntarget sl2.mon\nmap: 0 1 0\n"
        path = write(mon_dir / "bad.map", text)
        with pytest.raises(ParseError) as info:
            load_hom(path)
        assert "hom" in str(info.value)

    def test_missing_reference_file(self, mon_dir):
        text = "map f\nsource nowhere.mon\ntarget sl2.mon\nmap: 0 0\n"
        path = write(mon_dir / "dangling.map", text)
        with pytest.raises((ParseError, OSError)):
            load_hom(path)


class TestActionFormat:
    def test_round_trip(self, mon_dir, sl3, sl2):
        a = ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 1)))
        path = write(
            mon_dir / "a.act", serialize_action(a, "sl3.mon", "sl2.mon", "a")
        )
        b = load_action(path)
        assert b.act == a.act
        assert b.N == sl3 and b.H == sl2

    def test_duplicate_entry_rejected(self, mon_dir):
        text = (
            "action a\nN sl2.mon\nH sl2.mon\n"
            "act 0 0 -> 0\nact 0 1 -> 1\nact 1 0 -> 0\nact 0 1 -> 1\n"
        )
        path = write(mon_dir / "dup.act", text)
        with pytest.raises(ParseError) as info:
            load_action(path)
        assert "duplicate" in str(info.value)

    def test_missing_entry_rejected(self, mon_dir):
        text = "action a\nN sl2.mon\nH sl2.mon\nact 0 0 -> 0\nact 0 1 -> 1\nact 1 0 -> 0\n"
        path = write(mon_dir / "short.act", text)
        with pytest.raises(ParseError):
            load_action(path)

    def test_malformed_arrow(self, mon_dir):
        text = "action a\nN sl2.mon\nH sl2.mon\nact 0 0 = 0\n"
        path = write(mon_dir / "arrow.act", text)
        with pytest.raises(ParseError):
            load_action(path)


class TestExtensionFormat:
    def test_round_trip(self, tmp_path, sl2):
        ext = verify_split_extension(direct_product_extension(sl2, sl2)).value
        write(tmp_path / "N.mon", serialize_monoid(ext.N, "N"))
        write(tmp_path / "G.mon", serialize_monoid(ext.G, "G"))
        write(tmp_path / "H.mon", serialize_monoid(ext.H, "H"))
        path = write(
            tmp_path / "e.ext",
            serialize_extension(ext, "N.mon", "G.mon", "H.mon", "e"),
        )
        back = load_extension(path)
        assert back.k.map == ext.k.map
        assert back.e.map == ext.e.map
        assert back.s.map == ext.s.map
        assert back.G == ext.G
        assert verify_split_extension(back).ok

    def test_map_length_checked(self, tmp_path, sl2):
        write(tmp_path / "N.mon", serialize_monoid(sl2, "N"))
        text = (
            "extension e\nN N.mon\nG N.mon\nH N.mon\n"
            "k: 0 1 0\ne: 0 1\ns: 0 1\n"
        )
        path = write(tmp_path / "bad.ext", text)
        with pytest.raises(ParseError) as info:
            load_extension(path)
        assert info.value.line == 5


class TestReferences:
    def test_nul_in_path_is_a_parse_error(self, mon_dir):
        path = write(mon_dir / "f.map", "map f\nsource sl2.\0mon\ntarget sl3.mon\nmap: 0 1\n")
        with pytest.raises(ParseError, match="NUL") as info:
            load_hom(path)
        assert (info.value.line, info.value.col) == (2, 8)

    def test_blank_path_is_a_parse_error(self, mon_dir):
        # U+001F is whitespace to str.split but not to the tokenizer
        text = "extension e\nN sl2.mon\nG sl2.mon\nH \x1f\nk: 0 1\ne: 0 1\ns: 0 1\n"
        path = write(mon_dir / "e.ext", text)
        with pytest.raises(ParseError, match="expected 'H <path>'") as info:
            load_extension(path)
        assert info.value.line == 4

    def test_path_keeps_inner_spaces(self, tmp_path, sl2):
        write(tmp_path / "my sl2.mon", serialize_monoid(sl2, "sl2"))
        text = "map f\nsource  my sl2.mon \ntarget my sl2.mon\nmap: 0 1\n"
        path = write(tmp_path / "f.map", text)
        assert load_hom(path).source == sl2


LOADERS = {
    ".mon": load_monoid,
    ".map": load_hom,
    ".act": load_action,
    ".ext": load_extension,
    ".wact": load_wact_pair,
}


@pytest.fixture(scope="module")
def fuzz_dir(cli_dir, sl3, sl2):  # noqa: F811
    """The criterion-9 input files plus one weak-action pair file."""
    E = AdmissibleRelation(sl3, sl2, ((0, 1, 2), (0, 0, 2)))
    pair = WActPair(E, ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 2))))
    write(cli_dir / "p.wact", serialize_wact_pair(pair, "sl3.mon", "sl2.mon", "p"))
    return cli_dir


@st.composite
def mutated(draw, names):
    """(file name, its bytes with one byte flipped, a tail cut or 1-4
    bytes inserted)."""
    name, data = draw(st.sampled_from(names))
    i = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["flip", "cut", "insert"]))
    if kind == "flip":
        data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    elif kind == "cut":
        data = data[:i]
    else:
        data = data[:i] + draw(st.binary(min_size=1, max_size=4)) + data[i:]
    return name, data


class TestLoaderFuzz:
    def test_every_loader_is_fuzzed(self, fuzz_dir):
        exts = {os.path.splitext(p.name)[1] for p in fuzz_dir.iterdir()}
        assert set(LOADERS) <= exts

    def test_mutated_inputs_load_or_raise_format_error(self, fuzz_dir):
        names = [
            (p.name, p.read_bytes())
            for p in sorted(fuzz_dir.iterdir())
            if os.path.splitext(p.name)[1] in LOADERS and not p.name.startswith("fuzz")
        ]

        @settings(max_examples=600, deadline=None, database=None)
        @given(mutated(names))
        def check(case):
            name, data = case
            ext = os.path.splitext(name)[1]
            path = fuzz_dir / ("fuzz" + ext)
            path.write_bytes(data)
            try:
                LOADERS[ext](str(path))
            except FormatError:  # ParseError is a FormatError
                pass

        check()


class TestWactFormat:
    def test_round_trip(self, mon_dir, sl3, sl2):
        p = WActPair(
            AdmissibleRelation(sl3, sl2, ((0, 1, 2), (0, 0, 0))),
            ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 1))),
        )
        path = write(
            mon_dir / "p.wact", serialize_wact_pair(p, "sl3.mon", "sl2.mon", "p")
        )
        back = load_wact_pair(path)
        assert back.E.fibers == p.E.fibers
        assert back.alpha.act == p.alpha.act

    def test_serialized_form_is_stable(self, sl3, sl2):
        p = WActPair(
            AdmissibleRelation(sl3, sl2, ((0, 1, 2), (0, 0, 0))),
            ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 1))),
        )
        text = serialize_wact_pair(p, "sl3.mon", "sl2.mon", "p")
        assert text.splitlines()[3] == "fiber 0: {0} {1} {2}"
        assert text.splitlines()[4] == "fiber 1: {0 1 2}"

    def test_fiber_must_cover_carrier(self, mon_dir):
        text = (
            "wact p\nN sl2.mon\nH sl2.mon\n"
            "fiber 0: {0}\nfiber 1: {0 1}\n"
            "action 0 0 -> 0\naction 0 1 -> 1\naction 1 0 -> 0\naction 1 1 -> 1\n"
        )
        path = write(mon_dir / "cover.wact", text)
        with pytest.raises(ParseError) as info:
            load_wact_pair(path)
        assert "cover" in str(info.value)

    def test_member_outside_braces_rejected(self, mon_dir):
        text = (
            "wact p\nN sl2.mon\nH sl2.mon\n"
            "fiber 0: 0 {1}\nfiber 1: {0 1}\n"
            "action 0 0 -> 0\naction 0 1 -> 1\naction 1 0 -> 0\naction 1 1 -> 1\n"
        )
        path = write(mon_dir / "braces.wact", text)
        with pytest.raises(ParseError) as info:
            load_wact_pair(path)
        assert "inside" in str(info.value)

    def test_duplicate_member_rejected(self, mon_dir):
        text = (
            "wact p\nN sl2.mon\nH sl2.mon\n"
            "fiber 0: {0 0} {1}\nfiber 1: {0 1}\n"
            "action 0 0 -> 0\naction 0 1 -> 1\naction 1 0 -> 0\naction 1 1 -> 1\n"
        )
        path = write(mon_dir / "twice.wact", text)
        with pytest.raises(ParseError) as info:
            load_wact_pair(path)
        assert "twice" in str(info.value)

    def test_duplicate_fiber_rejected(self, mon_dir):
        text = (
            "wact p\nN sl2.mon\nH sl2.mon\n"
            "fiber 0: {0} {1}\nfiber 0: {0 1}\n"
            "action 0 0 -> 0\naction 0 1 -> 1\naction 1 0 -> 0\naction 1 1 -> 1\n"
        )
        path = write(mon_dir / "dupfiber.wact", text)
        with pytest.raises(ParseError) as info:
            load_wact_pair(path)
        assert "duplicate fiber" in str(info.value)


class TestEncoding:
    # One valid file of each kind; the test swaps its last character for a
    # byte that is not UTF-8.
    VALID = [
        ("m.mon", load_monoid, SL3_TEXT),
        ("f.map", load_hom, "map f\nsource sl2.mon\ntarget sl3.mon\nmap: 0 1\n"),
        (
            "a.act",
            load_action,
            "action a\nN sl2.mon\nH sl2.mon\n"
            "act 0 0 -> 0\nact 0 1 -> 1\nact 1 0 -> 0\nact 1 1 -> 0\n",
        ),
        (
            "e.ext",
            load_extension,
            "extension e\nN sl2.mon\nG sl2.mon\nH sl2.mon\nk: 0 1\ne: 0 1\ns: 0 1\n",
        ),
        (
            "p.wact",
            load_wact_pair,
            "wact p\nN sl2.mon\nH sl2.mon\nfiber 0: {0} {1}\nfiber 1: {0 1}\n"
            "action 0 0 -> 0\naction 0 1 -> 1\naction 1 0 -> 0\naction 1 1 -> 0\n",
        ),
    ]

    @pytest.mark.parametrize("name,loader,text", VALID, ids=[v[0] for v in VALID])
    def test_non_utf8_byte_is_a_parse_error(self, mon_dir, name, loader, text):
        path = mon_dir / name
        loader(write(path, text))
        path.write_bytes(text.encode("utf-8")[:-2] + b"\xff\n")
        with pytest.raises(ParseError) as info:
            loader(str(path))
        lines = text.splitlines()
        assert (info.value.file, info.value.line, info.value.col) == (
            str(path),
            len(lines),
            len(lines[-1]),
        )
        assert "UTF-8" in str(info.value)

    def test_position_counts_characters_and_crlf_lines(self, tmp_path):
        path = tmp_path / "m.mon"
        path.write_bytes(b"monoid m 1\r\nidentity 0\r\nrow 0: 0\r\nlabels: \xc3\xa9\xff\r\n")
        with pytest.raises(ParseError) as info:
            load_monoid(str(path))
        assert (info.value.line, info.value.col) == (4, 10)

    def test_bad_byte_in_referenced_file(self, mon_dir):
        (mon_dir / "sl2.mon").write_bytes(b"monoid sl2 2\n\xff")
        path = write(mon_dir / "f.map", "map f\nsource sl2.mon\ntarget sl3.mon\nmap: 0 1\n")
        with pytest.raises(ParseError) as info:
            load_hom(path)
        assert info.value.file.endswith("sl2.mon")
        assert (info.value.line, info.value.col) == (2, 1)


class TestLineBreaks:
    # Line 3 is a comment; line 5 has one label too many, so the file's error
    # is at 5:1.  The non-UTF-8 variant puts a bad byte at 5:9 instead.
    TEXT = "monoid ff 1\nidentity 0\n# one row\nrow 0: 0\nlabels: 1 x\n"
    BREAKS = ["\v", "\f", "\x1c", "\x85", "\u2028"]

    @staticmethod
    def insert(text, lineno, char):
        """text with char at the end of line lineno (1-based)."""
        lines = text.split("\n")
        lines[lineno - 1] += char
        return "\n".join(lines)

    @pytest.mark.parametrize("char", BREAKS, ids=repr)
    @pytest.mark.parametrize("lineno", [1, 2, 3, 4])
    def test_label_error_stays_on_its_line(self, tmp_path, lineno, char):
        path = write(tmp_path / "ff.mon", self.insert(self.TEXT, lineno, char))
        with pytest.raises(ParseError) as info:
            load_monoid(path)
        where = (info.value.line, info.value.col)
        if lineno == 3:
            assert where == (5, 1)
            assert "expected 1 labels, got 2" in str(info.value)
        else:
            # an index token is exactly an optional - and ASCII digits, so the
            # edited line is rejected itself
            assert info.value.line == lineno

    @pytest.mark.parametrize("char", BREAKS, ids=repr)
    @pytest.mark.parametrize("lineno", [1, 2, 3, 4])
    def test_non_utf8_error_stays_on_its_line(self, tmp_path, lineno, char):
        text = self.insert(self.TEXT.replace("1 x\n", ""), lineno, char)
        path = tmp_path / "ff.mon"
        path.write_bytes(text.encode("utf-8") + b"\xff\n")
        with pytest.raises(ParseError, match="UTF-8") as info:
            load_monoid(str(path))
        assert (info.value.line, info.value.col) == (5, 9)

    def test_only_newlines_end_lines(self):
        # str.splitlines() would make "row 1: 0" a trailing line
        noise = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
        text = "monoid m 1\r\nidentity 0\rrow 0: 0\n# %srow 1: 0\n" % noise
        assert parse_monoid(text).size == 1


class TestShapeErrors:
    # Shape errors that no other in-process test reaches: (file, loader,
    # text, line, column, message); sl2.mon and sl3.mon sit beside the file.
    WACT = "wact p\nN sl2.mon\nH sl2.mon\n"
    CASES = [
        ("m.mon", load_monoid, "monoid m 0\nidentity 0\n", 1, 10,
         "size must be at least 1"),
        ("f.map", load_hom, "map f\nsource sl2.mon\ntarget sl3.mon\nmap: 0 3\n", 4, 8,
         "entry 3 out of range 0..2"),
        ("h.act", load_action, "action a\nN sl2.mon\nH sl2.mon\nact 2 0 -> 0\n", 4, 5,
         "h = 2 out of range"),
        ("n.act", load_action, "action a\nN sl2.mon\nH sl2.mon\nact 0 2 -> 0\n", 4, 7,
         "n = 2 out of range"),
        ("m.act", load_action, "action a\nN sl2.mon\nH sl2.mon\nact 0 0 -> 2\n", 4, 12,
         "m = 2 out of range"),
        ("colon.wact", load_wact_pair, WACT + "fiber 0 {0} {1}\n", 4, 1,
         "expected 'fiber <h>: {...} ...'"),
        ("index.wact", load_wact_pair, WACT + "fiber 2: {0} {1}\n", 4, 7,
         "fiber index 2 out of range"),
        ("member.wact", load_wact_pair, WACT + "fiber 0: {0} {2}\n", 4, 14,
         "fiber member 2 out of range"),
        ("word.wact", load_wact_pair, WACT + "fiber 0: {0} {x}\n", 4, 14,
         "fiber member must be an integer, got 'x'"),
        # an index is an optional - and ASCII digits, not any literal int() reads
        ("plus.mon", load_monoid, "monoid a +2\n", 1, 10,
         "size must be an integer, got '+2'"),
        ("plus_identity.mon", load_monoid, "monoid a 2\nidentity +0\n", 2, 10,
         "identity must be an integer, got '+0'"),
        ("underscore.mon", load_monoid, "monoid a 2\nidentity 0\nrow 0: 0 1_0\n", 3, 10,
         "table entry must be an integer, got '1_0'"),
        ("arabic.mon", load_monoid, "monoid a 2\nidentity 0\nrow 0: 0 1\nrow 1: ١ ١\n",
         4, 8, "table entry must be an integer, got '١'"),
        # a token after a run of spaces keeps the column of its first character
        ("spaced.mon", load_monoid, "monoid a 2\nidentity 0\nrow  0:  0   5\n", 3, 14,
         "entry 5 out of range 0..1"),
        ("spaced.ext", load_extension,
         "extension e\nN sl2.mon\nG sl3.mon\nH sl2.mon\nk:  0    x\n", 5, 10,
         "map entry must be an integer, got 'x'"),
        # past int()'s limit on digits (4300 by default)
        ("long.mon", load_monoid, "monoid a %s\n" % ("1" * 5000), 1, 10,
         "size must be an integer, got '%s'" % ("1" * 5000)),
    ] + [
        # int() strips these at a token's edge; an index token holds none of them
        ("%s.mon" % name, load_monoid, "monoid a 2\nidentity 0\nrow 0: 0 1%s\n" % char, 3, 10,
         "table entry must be an integer, got %r" % ("1" + char))
        for name, char in [("tab", "\t"), ("vt", "\v"), ("ff", "\f"), ("nel", "\x85"),
                           ("nbsp", "\u00a0"), ("lsep", "\u2028")]
    ]

    @pytest.mark.parametrize("name, loader, text, line, col, message", CASES,
                             ids=[c[0] for c in CASES])
    def test_message(self, mon_dir, name, loader, text, line, col, message):
        path = write(mon_dir / name, text)
        with pytest.raises(ParseError) as info:
            loader(path)
        assert (info.value.file, info.value.line, info.value.col) == (path, line, col)
        assert str(info.value) == "%s:%d:%d: %s" % (path, line, col, message)
