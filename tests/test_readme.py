"""The README's examples, run as they are printed there."""

import doctest
import re
from pathlib import Path

from mexparity.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    """The bodies of the README's ```language blocks, fences excluded."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_python_example_passes_doctest():
    (block,) = fenced_blocks("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    output = []
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    result = runner.run(test, out=output.append)
    assert result == (0, 4), "".join(output)


def test_compute_examples_print_the_values_their_comments_state(capsys):
    # a CLI line such as `mexparity compute ... # counts p_{3,3}(0..5): 1 1 2 2 4 5`
    # states the value column it prints
    examples = [
        (match[1].split(), match[2].split())
        for block in fenced_blocks("sh")
        for match in re.finditer(r"^mexparity (compute [^#]*?)\s+#.*?((?: \d+)+)$", block, re.M)
    ]
    assert [args for args, _ in examples] == [
        ["compute", "--t", "3", "--limit", "6"],
        ["compute", "--t", "1", "--limit", "5", "--mod2"],
    ]
    for args, values in examples:
        main(args)
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["t", "n", "value"]
        assert [row.split()[-1] for row in rows] == values
