"""MVTEE reproduction: Multi-Variant Trusted Execution for Secure Model Inference.

This package reproduces the MVTEE system (Qin & Gu, Middleware '25): a
TEE-based model-inference system that runs multiple diversified inference
variants in parallel and cross-checks their outputs at checkpoints derived
from random-balanced model partitioning.

Top-level subpackages:

- :mod:`repro.crypto` -- AEAD ciphers, key management, sealed files.
- :mod:`repro.graph` -- the ONNX-like computational-graph IR.
- :mod:`repro.ops` -- numpy reference kernels for every operator.
- :mod:`repro.zoo` -- the evaluation model definitions (ResNet, Inception, ...).
- :mod:`repro.tee` -- simulated enclaves, attestation, Gramine-like TEE OS.
- :mod:`repro.runtime` -- diversified inference runtimes and fault injection.
- :mod:`repro.observability` -- span tracing + the process-wide metrics registry.
- :mod:`repro.partition` -- random-contraction model partitioning (Algorithm 1).
- :mod:`repro.variants` -- multi-level variant generation (Figure 3).
- :mod:`repro.mvx` -- the MVTEE monitor, bootstrap protocol and schedulers.
- :mod:`repro.offline` -- the offline ML MVX tool (Figure 2).
- :mod:`repro.attacks` -- attack harness for the security analysis (Table 1).
- :mod:`repro.simulation` -- discrete-event performance simulator (Figures 9-14).
- :mod:`repro.serving` -- the concurrent serving engine over one deployment.
- :mod:`repro.cluster` -- per-variant worker processes with supervised restarts.
- :mod:`repro.fleet` -- multi-tenant fleet serving behind one front door.
- :mod:`repro.clock` -- the injectable clock (real or virtual time).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
