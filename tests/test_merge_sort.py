"""The bounded external merge sort that puts an out-of-order DNS fixture in turn order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpkiaudit import _merge_sort

TEXTS = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)))


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.integers(-1, 5), TEXTS), max_size=60),
    st.integers(1, 7),
    st.integers(2, 4),
)
def test_texts_come_in_key_then_index_order(tmp_path_factory, records, run_lines, fan_in):
    directory = tmp_path_factory.mktemp("runs")
    keyed = [(key, index, text) for index, (key, text) in enumerate(records, 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_merge_sort, "RUN_LINES", run_lines)
        mp.setattr(_merge_sort, "MERGE_FAN_IN", fan_in)
        out = list(_merge_sort.sorted_texts(iter(keyed), str(directory)))
    assert out == [text for _, _, text in sorted(keyed)]
    assert list(directory.iterdir()) == []  # each run is removed once merged


def test_passes_merge_at_most_fan_in_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(_merge_sort, "RUN_LINES", 2)
    monkeypatch.setattr(_merge_sort, "MERGE_FAN_IN", 3)
    merged = []
    merge = _merge_sort._merged

    def counting(runs):
        merged.append(len(runs))
        return merge(runs)

    monkeypatch.setattr(_merge_sort, "_merged", counting)
    records = [(n % 5, n, f"line {n}") for n in range(40)]  # 20 runs
    out = list(_merge_sort.sorted_texts(reversed(records), str(tmp_path)))
    assert out == [text for *_, text in sorted(records)]
    assert max(merged) <= 3 and len(merged) == 7 + 3 + 1  # 20 runs, then 7, then 3
