"""repro — seed-based protein/genome comparison on a simulated SGI RASC-100.

A full reproduction of Nguyen, Cornu & Lavenier, "Implementing Protein
Seed-Based Comparison Algorithm on the SGI RASC-100 Platform"
(RAW/IPDPS 2009): the reorganised three-step comparison algorithm, a
tblastn-like baseline, cycle-level and behavioural models of the PSC
FPGA operator, the RASC-100 platform (NUMAlink, ADR registers, dual
FPGAs) and the paper's complete evaluation harness.

Quick start::

    import numpy as np
    from repro.seqs import random_protein_bank, random_genome
    from repro.core import SeedComparisonPipeline

    rng = np.random.default_rng(0)
    proteins = random_protein_bank(rng, 50)
    genome = random_genome(rng, 100_000)
    report = SeedComparisonPipeline().compare_with_genome(proteins, genome)

Subpackages are imported on demand (``import repro.core``), never here.
The boundary holds both ways: the ``repro-check`` lint
(:mod:`repro.analysis`) imports without numpy, and the runtime
(``compare``, ``serve``) never imports the lint.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
