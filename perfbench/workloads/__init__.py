"""One module per benchmark workload, each exposing ``run(ctx) -> Result``."""
