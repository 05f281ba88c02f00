"""The pipeline's stages, one module each; ``cli.run_stage`` imports a stage's
module by name and calls its ``run(cfg)``, so a stage child loads only the
library modules its own stage uses."""
