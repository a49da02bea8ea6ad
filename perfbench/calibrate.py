"""Calibration loop of the benchmark's clock.

    python3 perfbench/calibrate.py

prints the seconds this fresh interpreter takes to write 60 fixed molecules
from every third root with the benchmark's own SMILES writer and read their
formulas back: pure-Python graph and string work of the same kind as the
program's, in a fresh process as each command is.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import chem  # noqa: E402
import inputs  # noqa: E402

gen = inputs.Generator(random.Random(0))
mols = [gen.fragment(random.Random(i).randint(10, 40)) for i in range(60)]
start = time.perf_counter()
for mol in mols:
    for root in range(0, len(mol), 3):
        chem.formula(chem.write(mol, root))
print(time.perf_counter() - start)
