"""The pipeline's stages, one module each; ``cli.run_stage`` imports a stage's module by
name, so a stage child loads only its own stage's library modules, and calls its ``run(cfg,
diag, out, *readers)`` with a reader of each upstream artifact the stage reads.  A stage
opens its own inputs, writes its outputs through ``out`` and returns its INFO line."""
