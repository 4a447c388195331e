# Do the planned pilot sizes actually deliver their promised bounds?  The
# simulation harness replays the whole workflow many times: draw pilot data,
# estimate, size the main study from the estimate, evaluate the true power of
# what was sized, and count how often it lands below the threshold.

from pilotplan import (
    EffectSpec,
    PowerBounds,
    SimulationConfig,
    TestDesign,
    plan_variance_pilot,
    plan_effect_pilot,
    reproduce_table,
    simulate_effect_pipeline,
    simulate_variance_pipeline,
)

design = TestDesign(kind="two-sample", alpha=0.05)

# --- variability pilot: nominal bound 20% -----------------------------------
plan = plan_variance_pilot(EffectSpec(1, 4), design, 0.8, PowerBounds(0.2, 0.6))
rep = simulate_variance_pipeline(SimulationConfig(
    scenario="variance", effect=1.0, sigma=4.0,
    pilot_n=plan.pilot_n, seed=1234, replicates=20_000))
print("variability pilot of %d: empirical underpower %.3f (nominal bound 0.20)"
      % (plan.pilot_n, rep.empirical_underpower))
print("  spread of the main sizes the replicates chose:", rep.main_n_quantiles)

# --- effect pilot: nominal bound 30% ----------------------------------------
eplan = plan_effect_pilot(0.5, 1.0, design, 0.8, PowerBounds(0.3, 0.6))
erep = simulate_effect_pipeline(SimulationConfig(
    scenario="effect", effect=0.5, sigma=1.0,
    pilot_n=eplan.pilot_n, seed=1234, replicates=20_000))
print("effect pilot of %d per group: empirical underpower %.3f (bound 0.30)"
      % (eplan.pilot_n, erep.empirical_underpower))
print("  replicates whose estimated effect came out nonpositive: %d of %d"
      % (erep.nonpositive_effects, erep.replicates))

# Same seed, same answer, bit for bit: replicate r reads row r of a
# counter-based stream, so results do not depend on evaluation order.
again = simulate_effect_pipeline(SimulationConfig(
    scenario="effect", effect=0.5, sigma=1.0,
    pilot_n=eplan.pilot_n, seed=1234, replicates=20_000))
assert again == erep

# --- a whole reference grid at once -----------------------------------------
# Planned sizes on the left, simulated underpower on the right, in the
# published layout (1000 replicates per cell here; bump for tighter checks).
print()
print(reproduce_table(2, replicates=1000, seed=7).format_text())
