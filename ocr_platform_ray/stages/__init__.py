"""Ray Data stages: vectorized stateless transforms + the extract stages
(task maps over a stage instance)."""
