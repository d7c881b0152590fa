"""AI-decoder training data: the paper's headline application (§2.3).

Pipeline: Steane-code memory experiment -> *streamed* PTSBE with
provenance labels (`run_ptsbe_stream` + `iter_decoder_batches`: training
mini-batches arrive while the run is still executing) ->
LabeledShotDataset -> train a tiny logistic-regression decoder (pure
NumPy) on syndrome->logical-flip pairs -> compare against the classical
lookup decoder.

The supervision labels come from Kraus-level provenance — "known error
providence ... can be used as training labels on the output data to
enable supervised learning, which is not possible for data derived from
quantum devices" (paper §2.3).

Run:  python examples/decoder_training.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import depolarizing
from repro.circuits import Circuit
from repro.circuits.operations import GateOp
from repro.data.dataset import build_decoder_dataset, iter_decoder_batches
from repro.data.io import load_dataset, save_dataset
from repro.execution import run_ptsbe_stream
from repro.pts import ProportionalPTS
from repro.qec import LookupDecoder, steane_code, syndrome_extraction_circuit
from repro.rng import make_rng


def build_experiment(p_data: float):
    """Encode |0_L>, depolarize every data qubit, extract one round."""
    code = steane_code()
    circ, layout = syndrome_extraction_circuit(code, rounds=1)
    noisy = Circuit(circ.num_qubits)
    injected = False
    for op in circ:
        if not injected and isinstance(op, GateOp) and op.qubits[0] >= code.n:
            for q in range(code.n):
                noisy.attach(depolarizing(p_data), q)
            injected = True
        noisy.append(op)
    return code, noisy.freeze(), layout


def check(condition: bool, message: str) -> None:
    """Exit non-zero, naming what differs, unless ``condition`` holds."""
    if not condition:
        sys.exit(f"FAILED: {message}")


def train_logistic(features, labels, epochs=300, lr=0.5):
    """Minimal logistic regression (the stand-in for an AI decoder)."""
    rng = make_rng(0)
    x = features.astype(np.float64)
    y = labels.astype(np.float64)
    w = rng.normal(scale=0.01, size=x.shape[1])
    b = 0.0
    for _ in range(epochs):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad_w = x.T @ (p - y) / len(y)
        grad_b = float(np.mean(p - y))
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


def main() -> None:
    code, circuit, layout = build_experiment(p_data=0.08)
    print(f"experiment: {circuit.num_qubits} qubits, {circuit.num_noise_sites()} noise sites")

    # Streamed collection: mini-batches become available as each
    # trajectory completes — an online learner would partial_fit here
    # instead of accumulating.  Concatenating the batches reproduces the
    # materialized dataset bitwise (see docs/architecture.md, "Streaming
    # delivery"); the script checks it, and exits non-zero if not.
    stream = run_ptsbe_stream(
        circuit, ProportionalPTS(total_shots=40_000, nsamples=4000), seed=3
    )
    batches = []
    for i, batch in enumerate(iter_decoder_batches(stream, circuit, code, layout)):
        batches.append(batch)
        if i == 0:
            print(f"first mini-batch: {batch[0].shape[0]} shots (run still going)")
    print(f"streamed {len(batches)} mini-batches, replay seed {stream.seed}")
    dataset = build_decoder_dataset(stream.finalize(), circuit, code, layout)
    print(f"dataset: {dataset} | class balance: {dataset.class_balance()}")
    columns = (dataset.features, dataset.labels, dataset.trajectory_ids)
    streamed = [np.concatenate(column) for column in zip(*batches)]
    check(all(map(np.array_equal, streamed, columns)), "streamed batches != the dataset")

    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_dataset(save_dataset(dataset, Path(tmp) / "steane_decoder_dataset.npz"))
    reloaded = (loaded.features, loaded.labels, loaded.trajectory_ids)
    check(all(map(np.array_equal, reloaded, columns)), "reloaded arrays != the dataset")
    check(loaded.records == dataset.records, "reloaded records != the dataset's")
    check(loaded.metadata == dataset.metadata, "reloaded metadata != the dataset's")
    print("streamed batches and the saved file both equal the dataset")

    train, test = dataset.split(0.8, make_rng(1))
    w, b = train_logistic(train.features, train.labels)

    # Evaluate the learned decoder.
    pred = (test.features @ w + b) > 0
    learned_acc = float((pred == test.labels.astype(bool)).mean())

    # Classical baseline: lookup decoder predicting the logical-Z flip.
    lookup = LookupDecoder(code, max_weight=1)
    lz = code.logical_z_support(0)
    hits = 0
    for i in range(test.num_samples):
        corr = lookup.decode(test.features[i])
        flip = int(np.dot(corr.x, lz) % 2) if corr is not None else 0
        hits += int(flip == test.labels[i])
    lookup_acc = hits / test.num_samples

    majority = max(np.mean(test.labels), 1 - np.mean(test.labels))
    print(f"\nlearned decoder accuracy: {learned_acc:.4f}")
    print(f"lookup  decoder accuracy: {lookup_acc:.4f}")
    print(f"majority-class baseline:  {majority:.4f}")


if __name__ == "__main__":
    main()
