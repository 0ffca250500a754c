"""Property: the shard layout is part of the trace identity, never a
perturbation.

``run_sharded`` with awkward (non-dividing) shard widths must stay
byte-identical to ``run_columnar`` under the same config.  Every shard
holds whole sessions (a session lives in the shard its arrival falls
in), so the streamed results never see a session cut at a shard edge;
``tests/filtering/test_streaming.py`` checks that a chunk which cuts
one is refused.
"""

import numpy as np
import pytest

from repro.measurement import ColumnarTrace
from repro.synthesis import SynthesisConfig, TraceSynthesizer


@pytest.mark.parametrize("shard_days", [0.07, 0.13, 0.4])
def test_awkward_shard_widths_match_in_memory_run(tmp_path, shard_days):
    # 0.07 / 0.13 leave a partial final window; 0.4 is a single shard.
    import dataclasses

    config = SynthesisConfig(
        days=0.4, mean_arrival_rate=0.25, seed=31337, shard_days=shard_days
    )
    sharded = TraceSynthesizer(config).run_sharded(tmp_path / "t")
    whole = sharded.concat()
    in_memory = TraceSynthesizer(config).run_columnar()
    for field in dataclasses.fields(ColumnarTrace):
        va, vb = getattr(whole, field.name), getattr(in_memory, field.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb), field.name
        else:
            assert va == vb, field.name
