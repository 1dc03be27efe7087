"""Known bug: labels of files that use compiler directives.

The syntax check preprocesses before parsing, so a file with a
`` `timescale`` or `` `define`` line compiles clean.  The ranking judge
(``lint``), the complexity tier (``measure``) and the description
(``describe_source``) parse the *raw* text instead, fail on the
backtick, and label the file as unparsable: ranking 0, complexity
Basic, "could not be parsed".  Fixing it changes the curated datasets
the benchmark's reference outputs pin, so it is left for a change that
re-records them; this reproducer turns into an unexpected pass (and
fails, being strict) the moment it is fixed.
"""

import random

import pytest

from repro.corpus.templates import generate_design
from repro.dataset.complexity import classify_code
from repro.dataset.describe import describe_source
from repro.dataset.ranking import score_code
from repro.verilog import check

PLAIN = generate_design("traffic_light", random.Random(1)).source
WITH_DIRECTIVES = "`timescale 1ns/1ps\n`define UNUSED 1\n" + PLAIN


def test_directives_compile_clean():
    assert check(WITH_DIRECTIVES).status == "clean"


@pytest.mark.xfail(strict=True, reason="lint/measure/describe_source parse "
                   "raw text, so directives make them fail")
def test_directive_lines_do_not_change_labels():
    assert score_code(WITH_DIRECTIVES) == score_code(PLAIN)
    assert classify_code(WITH_DIRECTIVES) == classify_code(PLAIN)
    assert describe_source(WITH_DIRECTIVES) == describe_source(PLAIN)
