"""SGD training of the conditional model: shuffled mini-batches of pairs
bucketed by input length, learning-rate halving on validation plateau, and
per-epoch max-norm renormalization of the embedding tables.

`train` builds one model.StepTable for the training pairs and one for the
validation pairs before the first epoch, so a bad corpus is rejected before
any SGD step, and every batch is a gather of index ranges from its table.
`nll` evaluates each input-length bucket through model.loss, in chunks of
at most model.LOGIT_BUDGET logits.
"""

from dataclasses import dataclass

import numpy as np

# make_batch is not called here since batches come from step tables; it
# stays bound because perfbench times batch assembly as training.make_batch
from .model import (Hyperparams, backward, init_params, loss, make_batch,
                    step_table)  # noqa: F401

# embedding tables subject to the max-norm rule; dense weights are untouched
EMBEDDING_NAMES = ("E", "F", "G")


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries where it happened."""


@dataclass
class TrainConfig:
    hyperparams: Hyperparams
    max_epochs: int
    learning_rate: float = 0.05
    batch_size: int = 64
    seed: int = 0
    renorm_max_norm: float = 1.0
    patience: int = 1

    def validate(self):
        self.hyperparams.validate()
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        # 0 is allowed so a no-op run can still produce a history
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.renorm_max_norm <= 0:
            raise ValueError("renorm_max_norm must be positive")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        return self


@dataclass
class EpochRecord:
    epoch: int
    train_nll: float
    valid_nll: float
    valid_perplexity: float
    learning_rate: float  # the rate in effect during this epoch's updates


def token_count(pairs):
    return sum(len(y) for _, y in pairs)


def _batches_by_length(in_length, indices, batch_size):
    """Chunk (already shuffled) pair indices into batches of uniform input
    length; in_length lists each pair's input length."""
    buckets = {}
    for idx in indices:
        buckets.setdefault(in_length[idx], []).append(idx)
    batches = []
    for idxs in buckets.values():
        for i in range(0, len(idxs), batch_size):
            batches.append(idxs[i:i + batch_size])
    return batches


def _table_nll(params, hyper, table):
    """nll of the pairs of a StepTable: model.loss per input-length bucket."""
    n = len(table.length)
    total = 0.0
    for batch_idx in _batches_by_length(table.in_length.tolist(), range(n), n):
        total += loss(params, hyper, table.batch(batch_idx))
    return total


def nll(params, hyper, pairs):
    """Summed -log p(y_i+1 | x, y_c) over every output token of every pair."""
    if not pairs:
        raise ValueError("empty corpus")
    return _table_nll(params, hyper, step_table(pairs, hyper))


def perplexity(params, hyper, pairs):
    """exp(NLL / output token count)."""
    return float(np.exp(nll(params, hyper, pairs) / token_count(pairs)))


def renormalize_embeddings(params, max_norm):
    """Scale any embedding column with L2 norm > max_norm down to exactly max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    for name in EMBEDDING_NAMES:
        if name not in params:
            continue
        table = params[name]
        norms = np.sqrt((table * table).sum(axis=0))
        over = norms > max_norm
        if over.any():
            table[:, over] *= max_norm / norms[over]
    return params


def train(config, train_pairs, valid_pairs, epoch_callback=None):
    """Run the full schedule; returns (params, history of EpochRecord).

    Each epoch: seeded shuffle, bucket by exact input length, chunk into
    batches of batch_size pairs, shuffle the batch order, then one SGD step
    per batch with the gradient scaled by 1/batch-token-count. After the
    epoch the embedding tables are renormalized, validation NLL is measured
    on the updated parameters, and the learning rate halves when validation
    NLL fails to beat the best seen for `patience` consecutive epochs.
    epoch_callback(epoch, params, record), when given, runs after each
    epoch (checkpoint hook).
    """
    config.validate()
    if not train_pairs or not valid_pairs:
        raise ValueError("training and validation corpora must be nonempty")
    hyper = config.hyperparams
    train_table = step_table(train_pairs, hyper)
    valid_table = step_table(valid_pairs, hyper)
    in_length = train_table.in_length.tolist()
    valid_tokens = len(valid_table.target)
    params = init_params(hyper, config.seed)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lr = float(config.learning_rate)
    best_valid = np.inf
    bad_epochs = 0
    history = []
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_pairs))
        batches = _batches_by_length(in_length, order, config.batch_size)
        batch_order = rng.permutation(len(batches))
        epoch_nll = 0.0
        # divergence is caught by the explicit finiteness checks below, so
        # transient IEEE overflow warnings on the way there are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            for bi in batch_order:
                batch = train_table.batch(batches[bi])
                params.zero_grads()
                batch_nll = backward(params, hyper, batch)
                if not np.isfinite(batch_nll):
                    raise TrainingDiverged(
                        f"non-finite training NLL at epoch {epoch}, "
                        f"lr {lr}; lower the learning rate")
                epoch_nll += batch_nll
                step = lr / len(batch.target)
                try:
                    for name in params.names():
                        params[name] -= step * params.grad(name)
                except ValueError as exc:
                    raise TrainingDiverged(
                        f"non-finite parameter update at epoch {epoch}, "
                        f"lr {lr}; lower the learning rate") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            renormalize_embeddings(params, config.renorm_max_norm)
            valid_nll = _table_nll(params, hyper, valid_table)
            if not np.isfinite(valid_nll):
                raise TrainingDiverged(
                    f"non-finite validation NLL after epoch {epoch}, lr {lr}")
            valid_ppl = float(np.exp(valid_nll / valid_tokens))
        record = EpochRecord(
            epoch=epoch, train_nll=epoch_nll, valid_nll=valid_nll,
            valid_perplexity=valid_ppl, learning_rate=lr)
        history.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, params, record)
        if valid_nll < best_valid:
            best_valid = valid_nll
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                lr /= 2.0
                bad_epochs = 0
    return params, history
