"""Unit tests for the code-skeleton language: parser, BST, printer."""

import pytest

from repro.errors import SemanticError, SkeletonSyntaxError
from repro.skeleton import (
    ArrayDecl, Branch, Break, Call, Comp, Continue, ForLoop, FuncDef,
    LibCall, Load, Program, Return, Store, VarAssign, WhileLoop,
    format_skeleton, parse_skeleton,
)

SIMPLE = """
def main(n)
  for i = 0 : n
    comp 2 flops
  end
end
"""


def parse_one(body: str, params: str = "n") -> Program:
    return parse_skeleton(f"def main({params})\n{body}\nend\n")


class TestParserBasics:
    def test_simple_program(self):
        program = parse_skeleton(SIMPLE)
        assert set(program.functions) == {"main"}
        main = program.entry
        assert isinstance(main.body[0], ForLoop)
        assert isinstance(main.body[0].body[0], Comp)

    def test_param_defaults(self):
        program = parse_skeleton("param n = 40\nparam m = n * 2\n" + SIMPLE)
        assert str(program.params["n"]) == "40"
        assert "m" in program.params

    def test_comments_and_blank_lines(self):
        program = parse_skeleton(
            "# a comment\n\ndef main()  # trailing comment\n"
            "  comp 1 flops  # another\nend\n")
        assert program.entry.body[0].describe().startswith("comp")

    def test_for_default_step(self):
        loop = parse_one("for i = 0 : n\ncomp 1 flops\nend").entry.body[0]
        assert str(loop.step) == "1"

    def test_for_with_step_and_label(self):
        loop = parse_one(
            'for i = 2 : n step 2 as "evens"\ncomp 1 flops\nend'
        ).entry.body[0]
        assert str(loop.lo) == "2"
        assert str(loop.step) == "2"
        assert loop.label == "evens"

    def test_while_expect(self):
        loop = parse_one("while expect n/2\ncomp 1 flops\nend").entry.body[0]
        assert isinstance(loop, WhileLoop)
        assert loop.expect is not None

    def test_while_unprofiled(self):
        program = parse_one("while expect ?\ncomp 1 flops\nend")
        assert len(program.unprofiled_sites()) == 1

    def test_if_prob_else(self):
        branch = parse_one(
            "if prob 0.25\ncomp 1 flops\nelse\ncomp 2 flops\nend"
        ).entry.body[0]
        assert isinstance(branch, Branch)
        assert [a.kind for a in branch.arms] == ["prob", "default"]

    def test_if_cond_without_else(self):
        branch = parse_one("if n > 10\ncomp 1 flops\nend").entry.body[0]
        assert [a.kind for a in branch.arms] == ["cond"]

    def test_switch_cases(self):
        branch = parse_one(
            "switch\ncase prob 0.5\ncomp 1 flops\ncase prob 0.3\n"
            "comp 2 flops\ndefault\ncomp 3 flops\nend").entry.body[0]
        assert [a.kind for a in branch.arms] == ["prob", "prob", "default"]

    def test_loads_and_stores(self):
        program = parse_one(
            "array u: float32[n]\nload 3*n float32 from u\n"
            "store n float32 to u\nload n\nstore 2")
        body = program.entry.body
        assert isinstance(body[0], ArrayDecl) and body[0].element_bytes == 4
        assert body[1].array == "u" and body[1].dtype == "float32"
        assert body[3].dtype == "float64"  # default dtype

    def test_comp_variants(self):
        body = parse_one(
            "comp n flops\ncomp n flops div n/4 vec\ncomp 5 iops").entry.body
        assert not body[0].vectorizable
        assert body[1].vectorizable and str(body[1].div_flops) == "(n / 4)"
        assert str(body[2].iops) == "5"

    def test_lib_call(self):
        statement = parse_one("lib exp n*n").entry.body[0]
        assert isinstance(statement, LibCall)
        assert statement.name == "exp"

    def test_call_with_args(self):
        source = SIMPLE + "\ndef helper(a, b)\n  comp a flops\nend\n"
        source = source.replace("comp 2 flops", "call helper(i, n)")
        program = parse_skeleton(source)
        call = program.entry.body[0].body[0]
        assert isinstance(call, Call)
        assert len(call.args) == 2

    def test_flow_statements(self):
        body = parse_one(
            "for i = 0 : n\nbreak prob 0.1\ncontinue prob 0.2\nend\n"
            "return prob 0.3").entry.body
        loop = body[0]
        assert isinstance(loop.body[0], Break)
        assert isinstance(loop.body[1], Continue)
        assert isinstance(body[1], Return)
        assert str(loop.body[0].prob) == "0.1"

    def test_contextual_keywords_usable_as_names(self):
        # 'step', 'prob', 'flops' are contextual, not reserved
        program = parse_one("var step = 2\nvar prob = 0.5\n"
                            "for i = 0 : step step step\ncomp prob flops\nend")
        assert isinstance(program.entry.body[0], VarAssign)

    def test_magnitude_suffix_in_counts(self):
        statement = parse_one("comp 4k flops").entry.body[0]
        assert statement.flops.evaluate({}) == 4000


class TestParserErrors:
    def test_unclosed_block(self):
        with pytest.raises(SkeletonSyntaxError) as info:
            parse_skeleton("def main()\n  for i = 0 : 3\n  comp 1 flops\nend")
        assert "unclosed" in str(info.value)

    def test_stray_end(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton("end\n")

    def test_else_without_if(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("else")

    def test_duplicate_else(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("if prob 0.5\nelse\nelse\nend")

    def test_case_outside_switch(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("case prob 0.5")

    def test_case_after_default(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("switch\ndefault\ncase prob 0.5\nend")

    def test_statement_outside_function(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton("comp 1 flops\n")

    def test_nested_def(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton("def main()\ndef inner()\nend\nend")

    def test_unknown_statement(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("frobnicate 12")

    def test_bad_character(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("comp 1 $ flops")

    def test_trailing_garbage(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("comp 1 flops extra")

    def test_error_location_reported(self):
        with pytest.raises(SkeletonSyntaxError) as info:
            parse_skeleton("def main()\n  comp 1 flops junk\nend\n",
                           source_name="test.skop")
        assert info.value.line == 2
        assert info.value.source_name == "test.skop"

    def test_comp_requires_unit(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("comp 17")

    def test_array_requires_dims(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("array u: float64")

    def test_array_unknown_dtype(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("array u: float13[4]")

    def test_param_inside_function(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("param n = 4")

    def test_duplicate_div_clause(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_one("comp 4 flops div 1 div 2")


class TestErrorSpans:
    """Exact 1-based line/column spans on parse errors."""

    def test_trailing_garbage_points_at_the_garbage(self):
        with pytest.raises(SkeletonSyntaxError) as info:
            parse_skeleton("def main()\n  comp 1 flops junk\nend\n",
                           source_name="t.skop")
        assert (info.value.line, info.value.column) == (2, 16)
        assert info.value.code == "SKOP102"

    def test_bad_character_column(self):
        with pytest.raises(SkeletonSyntaxError) as info:
            parse_skeleton("def main()\n  comp 1 $ flops\nend\n")
        assert (info.value.line, info.value.column) == (2, 10)
        assert info.value.code == "SKOP101"

    def test_line_numbers_survive_blank_and_comment_runs(self):
        source = ("# header\n\n# more\ndef main()\n\n"
                  "  comp 1 $ flops\nend\n")
        with pytest.raises(SkeletonSyntaxError) as info:
            parse_skeleton(source)
        assert (info.value.line, info.value.column) == (6, 10)

    def test_end_of_line_error_points_past_last_token(self):
        with pytest.raises(SkeletonSyntaxError) as info:
            parse_skeleton("def main()\n  comp 1\nend\n")
        # '1' ends at column 8; the missing unit is reported at 9
        assert (info.value.line, info.value.column) == (2, 9)

    def test_expression_error_points_into_the_expression(self):
        with pytest.raises(SkeletonSyntaxError) as info:
            parse_skeleton("def main()\n  if prob 2 +\n  end\nend\n")
        assert info.value.code == "SKOP107"
        assert info.value.line == 2
        # past the dangling '+', where the operand should be
        assert info.value.column == 14

    def test_comment_hash_inside_quoted_label_is_kept(self):
        program = parse_skeleton(
            'def main()\n  for i = 0 : 4 as "k#1"\n'
            "    comp 1 flops\n  end\nend\n")
        loop = program.entry.body[0]
        assert loop.label == "k#1"

    def test_unclosed_block_points_at_the_opener(self):
        with pytest.raises(SkeletonSyntaxError) as info:
            parse_skeleton("def main()\n  for i = 0 : 3\n"
                           "  comp 1 flops\nend")
        assert info.value.code == "SKOP103"
        # the lone 'end' closes the for; the unclosed def opened on line 1
        assert (info.value.line, info.value.column) == (1, 1)


class TestSemanticValidation:
    def test_duplicate_function(self):
        with pytest.raises(SemanticError):
            parse_skeleton(SIMPLE + SIMPLE)

    def test_call_undefined(self):
        with pytest.raises(SemanticError):
            parse_one("call nothere(1)")

    def test_call_arity_mismatch(self):
        source = ("def main(n)\n  call helper(1, 2)\nend\n"
                  "def helper(a)\n  comp a flops\nend\n")
        with pytest.raises(SemanticError):
            parse_skeleton(source)

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError):
            parse_one("break")

    def test_continue_outside_loop(self):
        with pytest.raises(SemanticError):
            parse_one("continue")

    def test_break_inside_branch_inside_loop_ok(self):
        program = parse_one(
            "for i = 0 : n\nif prob 0.5\nbreak\nend\nend")
        assert program.statement_count() > 0

    def test_missing_main_detected_on_entry(self):
        program = parse_skeleton("def helper()\n  comp 1 flops\nend\n")
        with pytest.raises(SemanticError):
            _ = program.entry


class TestProgramQueries:
    def test_node_ids_unique_and_dense(self):
        program = parse_skeleton(SIMPLE)
        ids = [s.node_id for s in program.walk()]
        assert sorted(ids) == list(range(len(ids)))

    def test_function_attribute_set(self):
        program = parse_skeleton(SIMPLE)
        for statement in program.walk():
            assert statement.function == "main"

    def test_sites_are_stable(self):
        program = parse_skeleton(SIMPLE)
        loop = program.entry.body[0]
        assert loop.site == f"main@{loop.line}"

    def test_statement_count(self):
        program = parse_skeleton(SIMPLE)
        # def main, for, comp
        assert program.statement_count() == 3

    def test_static_size_positive(self):
        program = parse_skeleton(SIMPLE)
        assert program.static_size() >= program.statement_count()

    def test_arrays_query(self):
        program = parse_one("array u: float64[n]\narray v: float32[2][2]")
        arrays = program.arrays()
        assert set(arrays) == {"u", "v"}
        assert arrays["v"].element_bytes == 4

    def test_node_by_id(self):
        program = parse_skeleton(SIMPLE)
        loop = program.entry.body[0]
        assert program.node_by_id(loop.node_id) is loop
        with pytest.raises(KeyError):
            program.node_by_id(10_000)

    def test_walk_preorder(self):
        program = parse_skeleton(SIMPLE)
        kinds = [type(s).__name__ for s in program.walk()]
        assert kinds == ["FuncDef", "ForLoop", "Comp"]


class TestPrinterRoundTrip:
    COMPLEX = """
param n = 64

def main(n)
  array u: float64[n][n]
  var nt = 10
  for it = 0 : nt as "time_loop"
    call step(n)
    if prob 0.3
      var knob = 1
    else
      var knob = 0
    end
  end
  while expect n/2 as "solver"
    comp 4 flops div 1 vec
    break prob 0.01
  end
  return prob 0.05
end

def step(m)
  for i = 0 : m step 2
    load 3*m float32 from u
    comp 2*m flops
    store m float64 to u
    continue prob 0.1
  end
  switch as "mode"
  case prob 0.5
    comp m flops
  case m > 32
    comp 2*m flops
  default
    comp m iops
  end
  lib exp m
end
"""

    def test_round_trip_fixpoint(self):
        program = parse_skeleton(self.COMPLEX)
        text = format_skeleton(program)
        reparsed = parse_skeleton(text)
        assert format_skeleton(reparsed) == text

    def test_round_trip_preserves_structure(self):
        program = parse_skeleton(self.COMPLEX)
        reparsed = parse_skeleton(format_skeleton(program))
        assert program.statement_count() == reparsed.statement_count()
        assert set(program.functions) == set(reparsed.functions)
        original = [type(s).__name__ for s in program.walk()]
        rebuilt = [type(s).__name__ for s in reparsed.walk()]
        assert original == rebuilt

    def test_unprofiled_while_round_trips(self):
        source = "def main()\n  while expect ?\n    comp 1 flops\n  end\nend\n"
        program = parse_skeleton(source)
        text = format_skeleton(program)
        assert "expect ?" in text
        assert len(parse_skeleton(text).unprofiled_sites()) == 1

    def test_labels_preserved(self):
        program = parse_skeleton(self.COMPLEX)
        text = format_skeleton(program)
        assert 'as "time_loop"' in text
        assert 'as "mode"' in text


class TestFingerprintPerSweep:
    """A sweep formats and hashes its program once, in the parent, and
    ships the resident-tape key with every chunk; nothing remembers a
    fingerprint, so a program edited in place keys anew."""

    #: one ``while expect`` site, measured at 6 trips, written as 2
    LOOP = ("def main(n)\n  for i = 0 : n\n    while expect ?\n"
            "      comp 1 flops\n    end\n  end\nend\n")

    @staticmethod
    def _count_formats(monkeypatch):
        from repro.skeleton import printer
        calls = []
        original = printer.format_skeleton

        def counting(program):
            calls.append(program)
            return original(program)

        monkeypatch.setattr(printer, "format_skeleton", counting)
        return calls

    def test_one_format_per_program_across_a_multi_chunk_sweep(
            self, monkeypatch):
        from repro.hardware import BGQ
        from repro.parallel import sweep_inputs
        program = parse_skeleton(SIMPLE)
        calls = self._count_formats(monkeypatch)
        points = [{"n": float(n)} for n in range(10, 42)]
        result = sweep_inputs(program, BGQ, points, backend="scalar",
                              executor="serial", shards=4)
        assert result.shard_stats["shards_planned"] == 4
        assert len(result.points) == 32
        assert calls == [program]

    def test_pickled_copy_fingerprints_like_a_fresh_parse(self):
        import pickle
        program = parse_skeleton(SIMPLE)
        copy = pickle.loads(pickle.dumps(program))
        assert copy.fingerprint() == program.fingerprint() == \
            parse_skeleton(SIMPLE).fingerprint()

    def _annotated(self):
        from repro.hardware import BGQ
        from repro.simulate import collect_branch_stats
        measured = parse_skeleton(self.LOOP.replace("?", "6"))
        stats = collect_branch_stats(measured, BGQ, inputs={"n": 100.0},
                                     seed=19)
        return parse_skeleton(self.LOOP.replace("?", "2")), stats

    def test_in_place_annotation_renews_the_fingerprint(self):
        from repro.simulate import annotate_skeleton
        target, stats = self._annotated()
        before = target.fingerprint()
        assert annotate_skeleton(target, stats) == 1
        assert target.fingerprint() != before
        assert target.fingerprint() == \
            parse_skeleton(format_skeleton(target)).fingerprint()

    def test_sweep_after_an_in_place_edit_sees_the_edit(self):
        # the first sweep leaves a resident tape for the program; the
        # second must not replay it for the annotated statements
        from repro.hardware import BGQ
        from repro.parallel import sweep_inputs
        from repro.simulate import annotate_skeleton
        target, stats = self._annotated()
        points = [{"n": n} for n in (50.0, 100.0, 150.0)]

        def runtimes(program):
            result = sweep_inputs(program, BGQ, points, backend="scalar")
            assert not result.failures
            return [point.runtime for point in result.points]

        before = runtimes(target)
        annotate_skeleton(target, stats)
        after = runtimes(target)
        assert after != before
        assert after == runtimes(parse_skeleton(format_skeleton(target)))
