"""Table 4: extended-set matrix characteristics (scaled stand-ins)."""

from repro.matrices.suite import spec_by_name


def test_table4(run_figure):
    result = run_figure("table4")
    assert len(result["rows"]) == 18
    for name, paper_rows, paper_npr, rows, npr, nnz in result["rows"]:
        spec = spec_by_name(name)
        assert rows <= paper_rows
        # Realized nnz/row tracks the (possibly npr-scaled) spec.
        assert 0.5 * spec.npr < npr < 1.6 * spec.npr, name
    # The extended set is denser than the common set overall.
    assert max(r[4] for r in result["rows"]) > 100
