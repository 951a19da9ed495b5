import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_as_written():
    """The python block under "Library use" runs unchanged, so the documented
    list form of viterbi_decode and the nll_gradients signature cannot drift."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    k = namespace["voc"].k
    assert len(namespace["path"]) == 4 and len(namespace["short"]) == 2
    assert namespace["d_emissions"].shape == (4, k)
    assert namespace["d_trans"].shape == (k + 2, k + 2)
    assert namespace["state"].step == 1
    assert namespace["params"]["crf.trans"] is namespace["state"].views["crf.trans"]
