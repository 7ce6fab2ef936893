"""A pipeline keeps only what its verdicts read, not the lattice fields.

numpy reports its buffers to ``tracemalloc``, so the traced peak of a
pipeline run is a deterministic count of the bytes it holds at once.
"""

import tracemalloc

from acfront.harness import default_spec, run_thm22

FIELD_BYTES = 8 * 256 * 64  # one field of the default 256x64 window


def test_default_thm22_holds_a_few_fields_at_once(wave03):
    """The default thm22 (151 snapshots) peaks at 1.24 MB, about 9.5
    fields: the field in hand, the one being stepped with its SSPRK(10,4)
    stage buffers, and the temporaries of phase extraction and the front
    error.  Storing every snapshot again (each a view of its 258x66 padded
    buffer) peaks at 21.6 MB, about 165 fields.  The bound of 24 fields
    (3.1 MB) leaves a margin of 2.5 over the measured peak."""
    spec = default_spec("thm22")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = run_thm22(spec, wave03)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 24 * FIELD_BYTES
