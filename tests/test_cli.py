import os
import subprocess
import sys

import pytest

from conftest import assert_dag_transitively_reduced, parse_dot
from wschreier import io
from wschreier.catalog import chain_lattice, cyclic_group, right_zero_adjoined
from wschreier.cli import run
from wschreier.extension import SplitExtension, direct_product_extension, verify_split_extension
from wschreier.io import (
    load_wact_pair,
    serialize_action,
    serialize_extension,
    serialize_hom,
    serialize_monoid,
    serialize_wact_pair,
)
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.monoid import (
    ConsistencyError, MonoidHom, PreconditionError, direct_product, inverse_structure,
)
from wschreier.waction import ActionTable, AdmissibleRelation, WActPair, extract_waction


@pytest.fixture()
def files(tmp_path, sl2, sl3, c2):
    """A directory of well-formed and deliberately broken input files."""
    d = tmp_path

    def w(name, text):
        (d / name).write_text(text, encoding="utf-8")
        return str(d / name)

    w("sl2.mon", serialize_monoid(sl2, "sl2"))
    w("sl3.mon", serialize_monoid(sl3, "sl3"))
    w("c2.mon", serialize_monoid(c2, "c2"))
    w("rz.mon", serialize_monoid(right_zero_adjoined(2), "rz"))
    w(
        "broken.mon",
        "monoid broken 2\nidentity 0\nrow 0: 0 0\nrow 1: 1 1\n",
    )
    w("garbage.mon", "monoid broken\n")
    w(
        "alpha_a.act",
        serialize_action(
            ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 1))), "sl3.mon", "sl2.mon", "aa"
        ),
    )
    w(
        "alpha_0.act",
        serialize_action(
            ActionTable(sl3, sl2, ((0, 1, 2), (2, 2, 2))), "sl3.mon", "sl2.mon", "a0"
        ),
    )
    w(
        "bad.act",
        serialize_action(
            ActionTable(sl3, sl2, ((0, 1, 2), (0, 2, 1))), "sl3.mon", "sl2.mon", "bad"
        ),
    )
    w(
        "rz.act",
        serialize_action(
            ActionTable(right_zero_adjoined(2), sl2, ((0, 1, 2), (0, 1, 2))),
            "rz.mon",
            "sl2.mon",
            "rza",
        ),
    )
    w("f.map", serialize_hom(MonoidHom(sl2, sl3, (0, 1)), "sl2.mon", "sl3.mon", "f"))
    w("g.map", serialize_hom(MonoidHom(sl2, sl3, (0, 2)), "sl2.mon", "sl3.mon", "g"))
    w(
        "rzmap.map",
        serialize_hom(
            MonoidHom(sl2, right_zero_adjoined(2), (0, 1)), "sl2.mon", "rz.mon", "h"
        ),
    )
    G = direct_product(sl2, sl2)
    w("G.mon", serialize_monoid(G, "G"))
    diag = SplitExtension(
        sl2,
        G,
        sl2,
        MonoidHom(sl2, G, (0, 2)),
        MonoidHom(G, sl2, (0, 1, 0, 1)),
        MonoidHom(sl2, G, (0, 3)),
    )
    assert verify_split_extension(diag).ok
    w(
        "diag.ext",
        serialize_extension(diag, "sl2.mon", "G.mon", "sl2.mon", "diag"),
    )
    return d


def invoke(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


class TestCheck:
    def test_valid_semilattice(self, files, capsys):
        code, out = invoke(capsys, "check", str(files / "sl3.mon"))
        assert code == 0
        assert "monoid: valid" in out
        assert "inverse: yes (semilattice)" in out

    def test_group_annotation(self, files, capsys):
        code, out = invoke(capsys, "check", str(files / "c2.mon"))
        assert code == 0
        assert "inverse: yes (group)" in out

    def test_law_violation_is_mathematical_failure(self, files, capsys):
        code, out = invoke(capsys, "check", str(files / "broken.mon"))
        assert code == 1
        assert "monoid: invalid" in out
        assert "violation" in out

    def test_malformed_file_is_format_error(self, files, capsys):
        code, out = invoke(capsys, "check", str(files / "garbage.mon"))
        assert code == 2
        assert "error:" in out

    def test_missing_file(self, files, capsys):
        code, out = invoke(capsys, "check", str(files / "nope.mon"))
        assert code == 2

    def test_as_frame(self, files, capsys):
        code, out = invoke(capsys, "check", str(files / "sl3.mon"), "--as-frame")
        assert code == 0
        assert "frame: yes" in out
        assert "bottom: 0" in out  # the bottom's label

    def test_as_frame_rejects_group(self, files, capsys):
        code, out = invoke(capsys, "check", str(files / "c2.mon"), "--as-frame")
        assert code == 1
        assert "frame: no" in out


class TestInverse:
    def test_semilattice(self, files, capsys):
        code, out = invoke(capsys, "inverse", str(files / "sl3.mon"))
        assert code == 0
        assert "inv: 0 1 2" in out

    def test_non_inverse(self, files, capsys):
        code, out = invoke(capsys, "inverse", str(files / "rz.mon"))
        assert code == 1
        assert "inverse: no" in out


class TestLambda:
    def test_valid_action(self, files, capsys):
        code, out = invoke(capsys, "lambda", str(files / "alpha_a.act"))
        assert code == 0
        assert "carrier: 4" in out
        assert "weakly-schreier: yes" in out
        assert "schreier: no" in out

    def test_invalid_action(self, files, capsys):
        code, out = invoke(capsys, "lambda", str(files / "bad.act"))
        assert code == 1
        assert "action: invalid" in out

    def test_non_inverse_carrier(self, files, capsys):
        code, out = invoke(capsys, "lambda", str(files / "rz.act"))
        assert code == 1
        assert "inverse N: no" in out

    def test_internal_error_exits_3(self, files, capsys, monkeypatch):
        def broken(action):
            raise ConsistencyError("lambda product fails monoid laws: boom")

        monkeypatch.setattr(sys.modules["wschreier.lambda_product"], "lambda_product", broken)
        code, out = invoke(capsys, "lambda", str(files / "alpha_a.act"))
        assert code == 3
        assert out == "action: valid\nerror: internal: lambda product fails monoid laws: boom\n"

    def test_precondition_error_exits_1(self, files, capsys, monkeypatch):
        # no verb lets one out today; run maps it all the same
        def refused(action):
            raise PreconditionError("check_inverse_action failed: boom")

        monkeypatch.setattr(sys.modules["wschreier.lambda_product"], "lambda_product", refused)
        code, out = invoke(capsys, "lambda", str(files / "alpha_a.act"))
        assert code == 1
        assert out == "action: valid\nerror: check_inverse_action failed: boom\n"

    def test_emit_is_loadable(self, files, capsys):
        out_path = str(files / "lam.ext")
        code, _ = invoke(capsys, "lambda", str(files / "alpha_a.act"), "--emit", out_path)
        assert code == 0
        assert (files / "lam.ext").exists()
        assert (files / "lam.N.mon").exists()
        assert (files / "lam.G.mon").exists()
        assert (files / "lam.H.mon").exists()
        code, out = invoke(capsys, "extract", out_path)
        assert code == 0
        assert "fiber 1: {0 1 2}" in out

    def test_failed_emit_leaves_no_file(self, files, capsys, monkeypatch):
        def broken(*args):
            raise ConsistencyError("boom")

        before = sorted(os.listdir(files))
        monkeypatch.setattr("wschreier.io.serialize_extension", broken)
        code, out = invoke(
            capsys, "lambda", str(files / "alpha_a.act"), "--emit", str(files / "lam.ext")
        )
        assert code == 3
        assert out.endswith("error: internal: boom\n")
        assert sorted(os.listdir(files)) == before

    def test_failed_rename_leaves_no_file(self, files, capsys, monkeypatch):
        def broken(src, dst):
            raise OSError("disk full")

        before = sorted(os.listdir(files))
        monkeypatch.setattr("wschreier.cli.os.replace", broken)
        code, out = invoke(
            capsys, "glue", str(files / "f.map"), "--emit", str(files / "glued.ext")
        )
        assert code == 2
        assert out.endswith("error: disk full\n")
        assert sorted(os.listdir(files)) == before


class TestGlue:
    def test_glueing(self, files, capsys):
        code, out = invoke(capsys, "glue", str(files / "f.map"))
        assert code == 0
        assert "carrier: 5" in out

    def test_emit_and_compare_with_lambda(self, files, capsys):
        glue_path = str(files / "glued.ext")
        lam_path = str(files / "lam2.ext")
        assert invoke(capsys, "glue", str(files / "f.map"), "--emit", glue_path)[0] == 0
        # the meet action of f, written out by hand
        sl3 = chain_lattice(3)
        sl2 = chain_lattice(2)
        (files / "meet.act").write_text(
            serialize_action(
                ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 2))),
                "sl3.mon",
                "sl2.mon",
                "meet",
            ),
            encoding="utf-8",
        )
        assert invoke(capsys, "lambda", str(files / "meet.act"), "--emit", lam_path)[0] == 0
        code, out = invoke(capsys, "compare", glue_path, lam_path)
        assert code == 0
        assert "equivalent: yes" in out

    def test_non_frame_rejected(self, files, capsys):
        code, out = invoke(capsys, "glue", str(files / "rzmap.map"))
        assert code == 1
        assert "frame target: no" in out

    def test_reference_error_does_not_depend_on_the_directory(
        self, tmp_path, capsys, monkeypatch, sl2
    ):
        # b.mon's last row holds the out-of-range entry 7 at column 10
        outs = []
        for name in ("one", "two/deeper"):
            d = tmp_path / name
            d.mkdir(parents=True)
            (d / "a.mon").write_text(serialize_monoid(sl2, "a"), encoding="utf-8")
            (d / "b.mon").write_text(
                "monoid b 2\nidentity 0\nrow 0: 0 1\nrow 1: 1 7\n", encoding="utf-8"
            )
            hom = serialize_hom(MonoidHom(sl2, sl2, (0, 1)), "a.mon", "b.mon", "f")
            (d / "f.map").write_text(hom, encoding="utf-8")
            monkeypatch.chdir(d)
            outs.append(invoke(capsys, "glue", "f.map"))
        assert outs[0] == outs[1] == (2, "error: b.mon:4:10: entry 7 out of range 0..1\n")


class TestExtract:
    def test_non_weakly_schreier(self, files, capsys):
        code, out = invoke(capsys, "extract", str(files / "diag.ext"))
        assert code == 1
        assert "weakly-schreier: no" in out

    def test_shared_reference_is_loaded_once(self, files, capsys, monkeypatch):
        # diag.ext names sl2.mon as both N and H
        loaded = []
        load = io.load_monoid
        monkeypatch.setattr(io, "load_monoid", lambda path: loaded.append(path) or load(path))
        code, _ = invoke(capsys, "extract", str(files / "diag.ext"))
        assert code == 1
        assert sorted(os.path.basename(p) for p in loaded) == ["G.mon", "sl2.mon"]

    def test_references_are_printed_as_written(self, files, capsys, sl3, sl2):
        # "#" starts a comment only at the start of a line, so it is part of the path
        lam = lambda_product(
            enumerate_inverse_actions(
                inverse_structure(sl3).expect("sl3"), inverse_structure(sl2).expect("sl2")
            )[0]
        )
        (files / "n#x.mon").write_text(serialize_monoid(sl3, "n"), encoding="utf-8")
        (files / "lamG.mon").write_text(serialize_monoid(lam.extension.G, "G"), encoding="utf-8")
        text = serialize_extension(lam.extension, "n#x.mon", "lamG.mon", "sl2.mon", "lam")
        (files / "lam.ext").write_text(text, encoding="utf-8")
        code, out = invoke(capsys, "extract", str(files / "lam.ext"))
        assert code == 0
        assert "N n#x.mon\n" in out and "H sl2.mon\n" in out
        (files / "lam.wact").write_text(out[out.index("wact extracted"):], encoding="utf-8")
        assert load_wact_pair(str(files / "lam.wact")) == extract_waction(
            lam.extension, lam.retraction
        )


class TestCompare:
    def test_acts_compare_equivalent(self, files, capsys):
        code, out = invoke(
            capsys, "compare", str(files / "alpha_a.act"), str(files / "alpha_0.act")
        )
        assert code == 0
        assert "a<=b: yes" in out
        assert "b<=a: yes" in out
        assert "equivalent: yes" in out

    def test_invalid_input_reported(self, files, capsys):
        code, out = invoke(
            capsys, "compare", str(files / "bad.act"), str(files / "alpha_a.act")
        )
        assert code == 1
        assert "action: invalid" in out


class TestJoin:
    def test_join_of_chain_maps(self, files, capsys):
        code, out = invoke(capsys, "join", str(files / "f.map"), str(files / "g.map"))
        assert code == 0
        assert "map: 0 2" in out
        assert "act 1 0 -> 2" in out

    def test_non_central_rejected(self, files, capsys):
        code, out = invoke(
            capsys, "join", str(files / "rzmap.map"), str(files / "rzmap.map")
        )
        assert code == 1
        assert "central-idempotent f: no" in out


class TestEnumerate:
    def test_wactions_default(self, files, capsys):
        code, out = invoke(
            capsys, "enumerate", str(files / "sl2.mon"), str(files / "sl2.mon")
        )
        assert code == 0
        assert "count: 3" in out

    def test_actions(self, files, capsys):
        code, out = invoke(
            capsys,
            "enumerate",
            str(files / "sl2.mon"),
            str(files / "sl2.mon"),
            "--actions",
        )
        assert code == 0
        assert "count: 3" in out

    def test_limit_truncates_listing_not_count(self, files, capsys):
        code, out = invoke(
            capsys,
            "enumerate",
            str(files / "sl3.mon"),
            str(files / "sl2.mon"),
            "--wactions",
            "--limit",
            "2",
        )
        assert code == 0
        assert "count: 10" in out
        assert out.count("pair ") == 2

    def test_bound_respected(self, files, capsys, monkeypatch, sl3):
        from wschreier.io import serialize_monoid as ser

        (files / "sl3b.mon").write_text(ser(sl3, "sl3b"), encoding="utf-8")
        monkeypatch.setenv("WSCHREIER_BOUND", "5")
        code, out = invoke(
            capsys, "enumerate", str(files / "sl3.mon"), str(files / "sl3b.mon")
        )
        assert code == 2
        assert "error:" in out and "exceeds bound" in out

    def test_bound_env_override_up(self, files, capsys, monkeypatch):
        monkeypatch.setenv("WSCHREIER_BOUND", "9")
        code, out = invoke(
            capsys, "enumerate", str(files / "sl3.mon"), str(files / "sl3.mon")
        )
        assert code == 0
        assert "count: 41" in out

    def test_bound_caps_relation_enumeration_only(self, files, capsys, monkeypatch):
        # --actions is capped by enumerate_inverse_actions' candidate estimate
        monkeypatch.setenv("WSCHREIER_BOUND", "1")
        sl2 = str(files / "sl2.mon")
        code, out = invoke(capsys, "enumerate", sl2, sl2, "--actions")
        assert code == 0
        assert "count: 3" in out
        for argv in (
            ["enumerate", sl2, sl2],
            ["enumerate", sl2, sl2, "--wactions"],
            ["poset", sl2, sl2, "--dot", str(files / "o.dot")],
        ):
            code, out = invoke(capsys, *argv)
            assert code == 2
            assert "exceeds bound" in out
        assert not (files / "o.dot").exists()

    @pytest.mark.parametrize("verb", [["enumerate"], ["poset", "--dot", "o.dot"]])
    def test_bound_refuses_an_estimate_too_long_to_print(self, files, capsys, verb):
        # the estimate for C50 has 6479 digits, more than Python prints by default
        (files / "c50.mon").write_text(serialize_monoid(cyclic_group(50), "c50"), encoding="utf-8")
        c50 = str(files / "c50.mon")
        code, out = invoke(capsys, verb[0], c50, c50, *verb[1:])
        assert (code, out) == (
            2, "error: |N|*|H| = 2500 exceeds bound 9 (about 10^6478 raw candidates)\n"
        )
        assert not (files / "o.dot").exists()

    def test_bad_bound_value(self, files, capsys, monkeypatch):
        monkeypatch.setenv("WSCHREIER_BOUND", "many")
        code, out = invoke(
            capsys, "enumerate", str(files / "sl2.mon"), str(files / "sl2.mon")
        )
        assert code == 2

    # int() would read each as a number; the bound is an optional - and ASCII digits
    @pytest.mark.parametrize("raw", ["1_0", "\u0661\u0660", "+9", "9.0", "0x9"])
    def test_bound_refuses_what_int_alone_accepts(self, files, capsys, monkeypatch, raw):
        monkeypatch.setenv("WSCHREIER_BOUND", raw)
        code, out = invoke(
            capsys, "enumerate", str(files / "sl2.mon"), str(files / "sl2.mon")
        )
        assert (code, out) == (2, "error: WSCHREIER_BOUND must be an integer, got %r\n" % raw)

    @pytest.mark.parametrize("raw", [" 9 ", "\t9", "09"])
    def test_bound_inside_whitespace_or_with_leading_zero(self, files, capsys, monkeypatch, raw):
        monkeypatch.setenv("WSCHREIER_BOUND", raw)
        code, out = invoke(
            capsys, "enumerate", str(files / "sl3.mon"), str(files / "sl3.mon")
        )
        assert code == 0
        assert "count: 41" in out


class TestInternalErrors:
    # a ConsistencyError that only a broken builder raises (the conftest
    # fixtures patch one in) exits 3 with "error: internal: ..." last
    def test_glue(self, files, capsys, broken_frame_laws):
        code, out = invoke(capsys, "glue", str(files / "f.map"))
        assert code == 3
        assert out == ("frames: yes\nmeet-hom: yes\nerror: internal: "
                       "glueing carrier fails frame laws: distributive: 0 1 2\n")

    def test_extract(self, files, capsys, sl2, broken_compatibility):
        prod = direct_product_extension(sl2, sl2)
        text = serialize_extension(prod, "sl2.mon", "G.mon", "sl2.mon", "prod")
        (files / "prod.ext").write_text(text, encoding="utf-8")
        code, out = invoke(capsys, "extract", str(files / "prod.ext"))
        assert code == 3
        assert out == ("extension: valid\nweakly-schreier: yes\nschreier: yes\nerror: internal: "
                       "extracted pair fails validation: action-mul: 0 0 0\n")

    def test_enumerate(self, files, capsys, broken_compatibility):
        code, out = invoke(capsys, "enumerate", str(files / "sl2.mon"), str(files / "sl2.mon"))
        assert code == 3
        assert out == "error: internal: table fails compatibility: action-mul: 0 0 0\n"

    @pytest.mark.parametrize(
        "argv, module, name, before",
        [
            (["lambda", "alpha_a.act"], "lambda_product", "lambda_product", "action: valid\n"),
            (["glue", "f.map"], "frames", "artin_glueing", "frames: yes\nmeet-hom: yes\n"),
            (["extract", "prod.ext"], "waction", "extract_waction",
             "extension: valid\nweakly-schreier: yes\nschreier: yes\n"),
            (["compare", "alpha_a.act", "prod.ext"], "extension", "extension_morphism", ""),
            (["join", "f.map", "g.map"], "lambda_product", "join_hom", ""),
            (["enumerate", "sl2.mon", "sl2.mon", "--actions"],
             "lambda_product", "enumerate_inverse_actions", ""),
            (["enumerate", "sl2.mon", "sl2.mon"], "waction", "enumerate_wactions", ""),
            (["poset", "sl2.mon", "sl2.mon", "--dot", "o.dot"], "waction", "waction_leq", ""),
        ],
        ids=["lambda", "glue", "extract", "compare", "join", "enumerate-actions", "enumerate",
             "poset"],
    )
    def test_verb_reads_library_names_from_their_modules(
        self, files, capsys, monkeypatch, sl2, argv, module, name, before
    ):
        # a verb sees a name rebound in its defining module, as the tracer rebinds it
        def broken(*args, **kwargs):
            raise ConsistencyError("boom")

        text = serialize_extension(direct_product_extension(sl2, sl2), "sl2.mon", "G.mon",
                                   "sl2.mon", "prod")
        (files / "prod.ext").write_text(text, encoding="utf-8")
        monkeypatch.chdir(files)
        monkeypatch.setattr(sys.modules["wschreier." + module], name, broken)
        code, out = invoke(capsys, *argv)
        assert code == 3
        assert out == before + "error: internal: boom\n"


class TestPoset:
    def test_dot_structure(self, files, capsys):
        dot_path = str(files / "out.dot")
        code, out = invoke(
            capsys,
            "poset",
            str(files / "sl3.mon"),
            str(files / "sl2.mon"),
            "--dot",
            dot_path,
        )
        assert code == 0
        assert "pairs: 10" in out
        text = (files / "out.dot").read_text(encoding="utf-8")
        assert text.startswith("digraph")
        assert "rankdir=BT" in text
        assert_dag_transitively_reduced(text)

    def test_enumerated_pairs_never_merge(self, files, capsys):
        # enumeration already deduplicates action classes, so the preorder
        # on its output is a partial order: every node has size 1
        dot_path = str(files / "merge.dot")
        invoke(
            capsys,
            "poset",
            str(files / "sl3.mon"),
            str(files / "sl2.mon"),
            "--dot",
            dot_path,
        )
        text = (files / "merge.dot").read_text(encoding="utf-8")
        assert text.count("size=1") == 10
        assert "size=2" not in text

    def test_emit_dot_merges_mutually_comparable_pairs(self, sl3, sl2, alpha_a, alpha_0):
        # fed with raw, undeduplicated pairs, the two collapse actions are
        # mutually comparable and land in a single node of size 2
        from wschreier.cli import emit_dot
        from wschreier.lambda_product import waction_of
        from wschreier.waction import waction_leq

        dot = emit_dot([waction_of(alpha_a), waction_of(alpha_0)], waction_leq)
        assert 'label="size=2' in dot
        assert dot.count("[label=") == 1
        assert "->" not in dot

    def test_emit_dot_of_doubled_pairs_doubles_each_size(self, sl3, sl2):
        # each pair beside a copy of itself: every class has two members, and
        # the 12 covers among the 17 comparable pairs of classes stay the same
        from wschreier.cli import emit_dot
        from wschreier.waction import enumerate_wactions, waction_leq

        pairs = list(enumerate_wactions(sl3, sl2))
        dot = emit_dot(pairs, waction_leq)
        doubled = emit_dot([p for p in pairs for _ in range(2)], waction_leq)
        assert len(pairs) == 10 and dot.count("->") == 12
        assert doubled == dot.replace("size=1", "size=2")


class TestRefusals:
    """The exit code and the whole stdout of each law refusal that the other
    tests reach only through a substring, or not at all."""

    @pytest.fixture()
    def d(self, files, sl2, sl3, c2):
        def w(name, text):
            (files / name).write_text(text, encoding="utf-8")

        def wact(name, fibers, act):
            pair = WActPair(AdmissibleRelation(sl2, sl2, fibers), ActionTable(sl2, sl2, act))
            w(name, serialize_wact_pair(pair, "sl2.mon", "sl2.mon", name[:-5]))

        wact("ok.wact", ((0, 1), (0, 1)), ((0, 1), (0, 1)))
        wact("noadm.wact", ((0, 0), (0, 1)), ((0, 1), (0, 1)))  # identity fiber merged
        wact("nocompat.wact", ((0, 1), (0, 1)), ((1, 1), (0, 1)))  # a(1, 1) is not 1
        G = direct_product(sl2, sl2)
        nosection = SplitExtension(
            sl2,
            G,
            sl2,
            MonoidHom(sl2, G, (0, 2)),
            MonoidHom(G, sl2, (0, 1, 0, 1)),
            MonoidHom(sl2, G, (0, 2)),  # lands in the kernel
        )
        w("nosection.ext", serialize_extension(nosection, "sl2.mon", "G.mon", "sl2.mon", "ns"))
        w("nonhom.map", serialize_hom(MonoidHom(sl2, sl3, (1, 1)), "sl2.mon", "sl3.mon", "n"))
        w("id2.map", serialize_hom(MonoidHom(sl2, sl2, (0, 1)), "sl2.mon", "sl2.mon", "i"))
        zero = MonoidHom(c2, right_zero_adjoined(2), (0, 0))
        w("c2rz.map", serialize_hom(zero, "c2.mon", "rz.mon", "z"))  # rz is not inverse
        return files

    def test_compare_wacts(self, d, capsys):
        out = "a<=b: yes\nb<=a: yes\nequivalent: yes\n"
        assert invoke(capsys, "compare", str(d / "ok.wact"), str(d / "ok.wact")) == (0, out)

    def test_compare_non_inverse_action(self, d, capsys):
        path = str(d / "rz.act")
        out = "inverse: no (%s)\n" % path
        assert invoke(capsys, "compare", path, str(d / "ok.wact")) == (1, out)

    def test_compare_invalid_action(self, d, capsys):
        path = str(d / "bad.act")
        out = "action: invalid (%s)\n" % path
        assert invoke(capsys, "compare", path, str(d / "ok.wact")) == (1, out)

    def test_compare_inadmissible_wact(self, d, capsys):
        path = str(d / "noadm.wact")
        out = "admissible: no (%s)\n" % path
        assert invoke(capsys, "compare", path, str(d / "ok.wact")) == (1, out)

    def test_compare_incompatible_wact(self, d, capsys):
        path = str(d / "nocompat.wact")
        out = "compatible: no (%s)\n" % path
        assert invoke(capsys, "compare", str(d / "ok.wact"), path) == (1, out)

    def test_compare_invalid_extension(self, d, capsys):
        path = str(d / "nosection.ext")
        out = "extension: invalid (%s)\n" % path
        assert invoke(capsys, "compare", path, str(d / "ok.wact")) == (1, out)

    def test_compare_not_weakly_schreier(self, d, capsys):
        path = str(d / "diag.ext")
        out = "weakly-schreier: no (%s)\n" % path
        assert invoke(capsys, "compare", str(d / "ok.wact"), path) == (1, out)

    def test_glue_non_hom(self, d, capsys):
        out = "frames: yes\nmeet-hom: no\nviolation hom-identity: 0\n"
        assert invoke(capsys, "glue", str(d / "nonhom.map")) == (1, out)

    def test_extract_invalid_extension(self, d, capsys):
        out = "extension: invalid\nviolation section: 1\n"
        assert invoke(capsys, "extract", str(d / "nosection.ext")) == (1, out)

    def test_join_not_parallel(self, d, capsys):
        out = "error: join requires parallel maps\n"
        assert invoke(capsys, "join", str(d / "f.map"), str(d / "id2.map")) == (2, out)

    def test_join_non_hom(self, d, capsys):
        out = "hom f: no\nviolation hom-identity: 0\n"
        assert invoke(capsys, "join", str(d / "nonhom.map"), str(d / "g.map")) == (1, out)

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("check", "broken.mon"), "monoid: invalid\nviolation identity: 1\n"),
            (
                ("check", "c2.mon", "--as-frame"),
                "monoid: valid\ninverse: yes (group)\nframe: no\nviolation idempotent: 1\n",
            ),
            (
                ("inverse", "rz.mon"),
                "inverse: no\nviolation unique-inverse: 1 1 2\n"
                "violation unique-inverse: 2 1 2\nviolation idempotents-commute: 1 2\n",
            ),
            (("lambda", "bad.act"), "action: invalid\nviolation act-mul: 1 1 2\n"),
            (("lambda", "rz.act"), "inverse N: no\nviolation unique-inverse: 1 1 2\n"),
            (
                ("enumerate", "sl2.mon", "rz.mon", "--actions"),
                "inverse H: no\nviolation unique-inverse: 1 1 2\n",
            ),
            (("glue", "rzmap.map"), "frame target: no\nviolation commutative: 1 2\n"),
            (
                ("join", "rzmap.map", "rzmap.map"),
                "central-idempotent f: no\nviolation image: 1\n",
            ),
            (("join", "c2rz.map", "c2rz.map"), "inverse N: no\nviolation unique-inverse: 1 1 2\n"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
    )
    def test_law_refusals(self, d, capsys, argv, out):
        args = [str(d / a) if "." in a else a for a in argv]
        assert invoke(capsys, *args) == (1, out)


class TestSubprocess:
    def env(self, seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        return env

    def test_module_entry_point(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "wschreier", "check", str(files / "sl3.mon")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "monoid: valid" in proc.stdout

    def test_unknown_verb_exits_2(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "wschreier", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_non_utf8_input_is_a_format_error(self, files):
        (files / "bad.mon").write_bytes(b"monoid m 1\nidentity 0\nrow 0: 0\nlabels: \xff\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wschreier", "check", str(files / "bad.mon")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout.startswith("error: ")
        assert proc.stdout.count("\n") == 1
        assert "4:9" in proc.stdout
        assert proc.stderr == ""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "sl3.mon"],
            ["enumerate", "sl3.mon", "sl2.mon", "--wactions"],
            ["--help"],
            ["check", "--help"],
        ],
        ids=["check", "enumerate", "help", "check-help"],
    )
    def test_closed_stdout_exits_2(self, files, argv, unbuffered):
        """A reader gone before the first write: exit 2, as for any OSError,
        and nothing on stderr, whether print, argparse's help or the flush at
        exit meets the broken pipe."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(io.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wschreier", *argv],
                stdout=w, stderr=subprocess.PIPE, cwd=files, env=env,
            )
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (2, b"")

    def test_output_independent_of_hash_seed(self, files):
        argv = [
            sys.executable,
            "-m",
            "wschreier",
            "enumerate",
            str(files / "sl3.mon"),
            str(files / "sl2.mon"),
        ]
        a = subprocess.run(argv, capture_output=True, env=self.env("0"))
        b = subprocess.run(argv, capture_output=True, env=self.env("424242"))
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_dot_independent_of_hash_seed(self, files):
        outs = []
        for seed, name in (("1", "s1.dot"), ("99", "s2.dot")):
            argv = [
                sys.executable,
                "-m",
                "wschreier",
                "poset",
                str(files / "sl3.mon"),
                str(files / "sl2.mon"),
                "--dot",
                str(files / name),
            ]
            proc = subprocess.run(argv, capture_output=True, env=self.env(seed))
            assert proc.returncode == 0
            outs.append((files / name).read_bytes())
        assert outs[0] == outs[1]


# The wschreier modules a verb loads, beyond the package itself.  A verb
# imports the library modules it calls once its inputs are loaded, so an
# input the loader refuses loads nothing beyond monoid and io.
LOADS = {"cli", "io", "monoid"}
LOADS_WACTION = LOADS | {"extension", "waction"}
LOADS_LAMBDA = LOADS_WACTION | {"lambda_product"}
LOADS_FRAMES = LOADS_LAMBDA | {"frames"}


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["check", "sl3.mon"], 0, LOADS),
        (["check", "broken.mon"], 1, LOADS),
        (["inverse", "sl3.mon"], 0, LOADS),
        (["inverse", "rz.mon"], 1, LOADS),
        (["extract", "diag.ext"], 1, LOADS_WACTION),
        (["enumerate", "sl2.mon", "sl2.mon"], 0, LOADS_WACTION),
        (["enumerate", "sl2.mon", "sl2.mon", "--wactions"], 0, LOADS_WACTION),
        (["poset", "sl2.mon", "sl2.mon", "--dot", "o.dot"], 0, LOADS_WACTION),
        (["lambda", "alpha_a.act"], 0, LOADS_LAMBDA),
        (["join", "f.map", "g.map"], 0, LOADS_LAMBDA),
        (["compare", "alpha_a.act", "alpha_0.act"], 0, LOADS_LAMBDA),
        (["compare", "diag.ext", "diag.ext"], 1, LOADS | {"extension"}),
        (["enumerate", "sl2.mon", "sl2.mon", "--actions"], 0, LOADS_LAMBDA),
        (["glue", "f.map"], 0, LOADS_FRAMES),
        (["check", "sl3.mon", "--as-frame"], 0, LOADS_FRAMES),
        # a parse error in the first input, for every verb
        (["check", "garbage.mon"], 2, LOADS),
        (["inverse", "garbage.mon"], 2, LOADS),
        (["lambda", "garbage.act"], 2, LOADS),
        (["glue", "garbage.map"], 2, LOADS),
        (["extract", "garbage.ext"], 2, LOADS),
        (["compare", "garbage.act", "alpha_a.act"], 2, LOADS),
        (["compare", "garbage.wact", "alpha_a.act"], 2, LOADS),
        (["compare", "garbage.ext", "alpha_a.act"], 2, LOADS),
        (["join", "garbage.map", "g.map"], 2, LOADS),
        (["enumerate", "garbage.mon", "sl2.mon", "--actions"], 2, LOADS),
        (["enumerate", "garbage.mon", "sl2.mon", "--wactions"], 2, LOADS),
        (["poset", "garbage.mon", "sl2.mon", "--dot", "o.dot"], 2, LOADS),
    ],
)
def test_verb_loads_only_its_modules(files, argv, code, loaded):
    """python -m wschreier <verb>, as runpy runs it, imports the modules of
    its verb and no other; no verb needs catalog, and none imports
    dataclasses or inspect, which cost a fresh child several milliseconds."""
    for ext in ("act", "map", "ext", "wact"):
        (files / ("garbage." + ext)).write_text("garbage\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(io.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_AS_MAIN, *argv],
        capture_output=True, text=True, cwd=files, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == code, proc.stdout
    modules = proc.stderr.splitlines()[-1].split()
    assert {m[len("wschreier."):] for m in modules if m.startswith("wschreier.")} == loaded
    assert not {"dataclasses", "inspect"} & set(modules)


# python -m wschreier, then the names of the loaded modules as stderr's last line
RUN_AS_MAIN = """import runpy, sys
try:
    runpy.run_module("wschreier", run_name="__main__", alter_sys=True)
finally:
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""
