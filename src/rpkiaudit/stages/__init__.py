"""The pipeline's stages, one module each; ``cli.run_stage`` imports a stage's
module by name and calls its ``run(cfg, diag, out)``, so a stage child loads only
the library modules its own stage uses.  A stage writes its outputs through ``out``
and returns its INFO line; the driver commits the outputs."""
