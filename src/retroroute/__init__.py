"""Root-aligned retrosynthetic route notation: SMILES graph core, route DAG
model, aligned rendering, plan scoring, evaluation and consensus voting.

Each public name is imported from the module that defines it, for example
`from retroroute.smiles import canonical_key`; the package itself holds none
and importing it loads no submodule."""
