"""README examples: every fenced Python block runs, and the values it quotes are real."""

import ast
import json
import re
from pathlib import Path

from sdefi import systems
from sdefi.cli import parse_system_dict

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
# `expr   # VALUE` lines, VALUE a literal, optionally followed by `:` or `,` and prose
QUOTED = re.compile(r"^(\S.*?)\s+# (True|False|'[^']*'|\[.*\])(?:[:,].*)?$", re.M)


def test_readme_python_blocks_run_and_quote_their_results():
    assert len(BLOCKS) == 2  # the library quick start and the Monte Carlo cross-check
    ns: dict = {}
    quoted = []
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), ns)
        quoted += QUOTED.findall(block)
    assert len(quoted) == 5
    for expr, value in quoted:
        assert eval(expr, ns) == ast.literal_eval(value), expr
    # the quick start quotes its verdict list in the comment lines under the expression
    expr, lines = re.search(r"^(\[\(v\.code.*)\n((?:# .*\n)+)", BLOCKS[0], re.M).groups()
    want = ast.literal_eval(" ".join(line[2:] for line in lines.splitlines()))
    assert want == [("NO_STRONG_ANALYTIC", "certified"), ("STRONG_COUNT_AT_MOST", "certified"),
                    ("NO_WEAK_ANALYTIC", "certified"), ("NO_WEAK_ANALYTIC", "certified")]
    assert eval(expr, ns) == want


def test_readme_system_file_example_is_gbm():
    (block,) = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert parse_system_dict(json.loads(block)) == systems.gbm()
