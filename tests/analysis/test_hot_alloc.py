"""Fixtures for the hot-path allocation lint (REPRO911)."""

import textwrap

from repro.analysis import get_rule
from repro.analysis.engine import analyze_project

CORE_SOA = "src/repro/noc/core_soa.py"


def run(source):
    return analyze_project(
        {CORE_SOA: textwrap.dedent(source)}, [get_rule("hot-alloc")])


class TestHotPathAllocation:
    def test_dict_literal_in_cycle_flags(self):
        findings = run("""\
            class SoaCore:
                def cycle_all(self, now):
                    requests = {}
                    return requests
            """)
        assert len(findings) == 1
        assert "dict literal" in findings[0].message
        assert "cycle_all" in findings[0].message

    def test_lambda_and_comprehension_flag(self):
        findings = run("""\
            class SoaCore:
                def cycle_all(self, ports):
                    order = sorted(ports, key=lambda p: p)
                    return [p for p in order]
            """)
        kinds = {f.message.split(" in ")[0] for f in findings}
        assert "lambda construction" in kinds
        assert "list comprehension" in kinds

    def test_transitive_self_call_is_descended(self):
        findings = run("""\
            class SoaCore:
                def cycle_all(self, now):
                    self._stage(now)

                def _stage(self, now):
                    return [now]
            """)
        assert len(findings) == 1
        assert "SoaCore._stage" in findings[0].message

    def test_cold_methods_are_skipped(self):
        assert run("""\
            class SoaCore:
                def __init__(self):
                    self.scratch = [[] for _ in range(4)]

                def audit(self):
                    return {"state": list(self.scratch)}

                def cycle_all(self, now):
                    return now
            """) == []

    def test_preallocated_scratch_pattern_passes(self):
        assert run("""\
            class SoaCore:
                def cycle_all(self, now):
                    lst = self.scratch[0]
                    lst.append(now)
                    del lst[:]
                    return now
            """) == []

    def test_constant_tuple_and_parallel_unpack_pass(self):
        # Constant tuples are folded by CPython; parallel unpacks
        # compile to stack rotations — neither allocates per cycle.
        assert run("""\
            class SoaCore:
                def cycle_all(self, a, b):
                    shape = (1, 2, 3)
                    a, b = b, a
                    return shape, a, b  # repro: allow[hot-alloc]
            """) == []

    def test_allow_comment_suppresses(self):
        assert run("""\
            class SoaCore:
                def cycle_all(self, t, flit):
                    # The payload tuple IS the communicated data.
                    # repro: allow[hot-alloc]
                    self.arrivals.append((t, flit))
            """) == []

    def test_annotations_are_not_executed(self):
        assert run("""\
            from typing import Callable, List

            class SoaCore:
                def cycle_all(self, rank: Callable[[int], int]
                              ) -> "List[int]":
                    out: List[int] = self.scratch
                    return out
            """) == []

    def test_non_hot_classes_are_out_of_scope(self):
        assert run("""\
            class Telemetry:
                def cycle_all(self, now):
                    return {"now": now}
            """) == []


BASE = "src/repro/compression/base.py"
SCHEMES = "src/repro/compression/schemes.py"


def run_codec(base_source, schemes_source):
    return analyze_project(
        {BASE: textwrap.dedent(base_source),
         SCHEMES: textwrap.dedent(schemes_source)},
        [get_rule("hot-alloc")])


class TestCodecHotPaths:
    def test_per_word_object_construction_flags(self):
        findings = run_codec("""\
            class WordEncoding:
                pass
            """, """\
            class BaselineNode:
                def encode(self, block, dst):
                    for word in block.words:
                        self.out.append(WordEncoding())
            """)
        assert len(findings) == 1
        assert "object construction (WordEncoding)" in findings[0].message
        assert "BaselineNode.encode" in findings[0].message

    def test_inherited_helper_is_reported_in_its_own_module(self):
        findings = run_codec("""\
            class NodeCodec:
                def _finish_encode(self, block):
                    return [block]
            """, """\
            class BaselineNode(NodeCodec):
                def encode(self, block, dst):
                    return self._finish_encode(block)
            """)
        assert len(findings) == 1
        assert findings[0].path == BASE
        assert "NodeCodec._finish_encode" in findings[0].message

    def test_calls_to_functions_and_builtins_pass(self):
        assert run_codec("""\
            def match(word):
                return word
            """, """\
            class BaselineNode:
                def encode(self, block, dst):
                    codes = tuple(map(match, block.words))
                    return codes  # per-block output via a call, no literal
            """) == []
