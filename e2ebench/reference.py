"""Reference end states for the single-solver workloads.

Each file under `refs/` holds the (v, e, x, t) state a solver reached
after a fixed number of steps at the commit the benchmark was defined
on. A run passes when every field agrees to `STATE_RTOL`, measured as
max |field - ref| / max |ref|. A direct (factor-once) momentum solve
agrees with the PCG path to about 6e-12 after 15 steps, and the
64-rank vectorized march agrees with the serial reference to 5e-15
untraced and 2e-11 traced (25 steps), so 1e-9 admits both while any
change to the physics shows up many orders of magnitude above it.

Regenerate (only when the physics is meant to change) with

    python3 e2ebench/reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

STATE_RTOL = 1e-9
REF_DIR = Path(__file__).resolve().parent / "refs"


def ref_path(physics: str, steps: int) -> Path:
    return REF_DIR / f"{physics}-{steps}.npz"


def compare(state, physics: str, steps: int) -> dict:
    """Relative max error per field against the stored reference."""
    with np.load(ref_path(physics, steps)) as ref:
        out = {}
        for field in ("v", "e", "x"):
            want = ref[field]
            got = np.asarray(getattr(state, field))
            scale = float(np.max(np.abs(want))) or 1.0
            out[field] = (float(np.max(np.abs(got - want))) / scale
                          if got.shape == want.shape else float("inf"))
        out["t"] = abs(float(state.t) - float(ref["t"])) / max(abs(float(ref["t"])), 1e-300)
    return out


def record() -> None:
    """Write every reference the workloads compare against."""
    import single

    REF_DIR.mkdir(exist_ok=True)
    seen = set()
    for spec in single.WORKLOADS.values():
        for steps in (spec["steps"], single.SMOKE_STEPS):
            key = (spec["physics"], steps)
            if key in seen:
                continue
            seen.add(key)
            solver = single.build(dict(spec, ranks=0))
            result = solver.run(t_final=single.T_FINAL, max_steps=steps)
            solver.close()
            s = result.state
            np.savez(ref_path(*key), v=s.v, e=s.e, x=s.x, t=np.asarray(s.t))
            print(f"wrote {ref_path(*key).name}: {result.steps} steps, t={s.t:.6g}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
