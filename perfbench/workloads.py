"""The benchmark's workloads: corpus, train and pragmatics.

A workload is built from a seed and a size profile and drives `pragref` only
through its public functions, always looked up on the module at call time so
that a traced run sees every call.

- `setup()` makes the inputs the program receives and, for `pragmatics`,
  trains L0 and S0. It can run again and is timed as `setup_s`.
- `check_setup()` runs the checks made once, before any timing.
- `prepare(i)` makes round i's inputs from the seed; it is neither timed nor
  traced.
- `run(inputs, timed)` calls the program once per stage, each stage through
  `timed(fn, *args)`, which the runner times.
- `check(inputs, outputs, full)` compares the outputs with the references and
  returns the number of operations that failed. `full` adds the costlier
  checks; the runner sets it on the first round.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import numpy as np

from pragref import colorspace, corpus, listener, metrics, nnsubstrate, rsa, speaker
from pragref.training import TrainConfig

import references as ref
from references import require

SIZES = {
    "full": {
        "corpus_trials": 900,
        "train_trials": 900, "zipf_types": 5000,
        "zipf_exponent": 1.0, "zipf_max_extra": 8,
        "model_trials": 600, "model_epochs": 3,
        "agent_trials": 24, "s0_per_condition": 1000, "s1_per_condition": 30,
        "dims": {},
    },
    "smoke": {
        "corpus_trials": 90,
        "train_trials": 450, "zipf_types": 400,
        "zipf_exponent": 1.0, "zipf_max_extra": 3,
        "model_trials": 150, "model_epochs": 2,
        "agent_trials": 3, "s0_per_condition": 4, "s1_per_condition": 2,
        "dims": {"embed_dim": 16, "hidden_dim": 16},
    },
}

# Both models train at the program's default optimizer and learning rate.
# In `train`, L0 gets TrainConfig's default of 10 epochs: after 4 to 6, its
# best dev accuracy came within 0.01 of chance on some corpora. S0 trains for
# S0_EPOCHS.
S0_EPOCHS = 4
# Train/dev/test shares of the dyads.
FRACTIONS = (0.5, 0.25, 0.25)
# The `train` corpus and the `pragmatics` models come from this seed, whatever
# the run's seed. A round's cost then does not depend on the seed: over seeds
# 1 to 10, a seed-drawn `train` corpus varied L0's LSTM steps per epoch from
# 122 to 136.
FIXED_SEED = 1703
# Round 0 draws its inputs from this seed, whatever the run's seed, so that
# the peak memory read after it does not depend on the seed.
ROUND0_SEED = 0
# Seeded streams used in set-up, one per purpose.
SETUP_STREAMS = ("corpus", "zipf", "l0", "s0", "gradcheck")


def _splits(trials, seed):
    return corpus.apply_split(trials, corpus.split_by_dyad(trials, FRACTIONS, seed))


def _vocab(trials, mode):
    return corpus.build_vocab([corpus.preprocess(t.speaker_texts, mode) for t in trials])


@dataclasses.dataclass
class Round:
    items: list[int]      # items handled per stage
    outputs: object


class Workload:
    """Shared plumbing; subclasses define STAGES and the four steps."""

    name = ""
    # One (end-to-end name, unit) per stage, in run order.
    STAGES: tuple[tuple[str, str], ...] = ()
    # Operations attempted per round besides the stage items.
    EXTRA_OPS = 0
    # Weight of the small-array probe loop, against the pure-Python one, in
    # the host factor that scales this workload's timings.
    PROBE_NUMPY_SHARE = 0.5

    def __init__(self, seed: int, size: dict, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def round_rng(self, index: int, *tags: int) -> np.random.Generator:
        """A stream of round `index` (one per tag), drawn from the seed."""
        seed = ROUND0_SEED if index == 0 else self.seed
        return np.random.default_rng([seed, 0, index, *tags])

    def setup_rng(self, purpose: str, seed: int | None = None) -> np.random.Generator:
        seed = self.seed if seed is None else seed
        return np.random.default_rng([seed, 1, SETUP_STREAMS.index(purpose)])

    def check_setup(self) -> None:
        pass


# -- corpus ------------------------------------------------------------------------

# Malformed rows written into every corpus file, each of which load_raw must
# report as a reject at its own line. `_C` is a valid colour list; every
# malformed row that names a game names MALFORMED_GAME.
MALFORMED_GAME = "x"
_C = "[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]"
MALFORMED = (
    '{"game_id": "x", "round": 1, "colors": [[0.1, 0.2, 0.3]',
    '["not", "an", "object"]',
    '{"round": 1, "colors": %s, "target_index": 0, "speaker_text": "blue"}' % _C,
    '{"game_id": "x", "round": 1, "colors": [[0.1, 0.2, 0.3]], "target_index": 0, '
    '"speaker_text": "blue"}',
    '{"game_id": "x", "round": 1, "colors": [[0.1, 0.2, 1.3], [0.4, 0.5, 0.6], '
    '[0.7, 0.8, 0.9]], "target_index": 0, "speaker_text": "blue"}',
    '{"game_id": "x", "round": 1, "colors": [["a", 0.2, 0.3], [0.4, 0.5, 0.6], '
    '[0.7, 0.8, 0.9]], "target_index": 0, "speaker_text": "blue"}',
    '{"game_id": "x", "round": 1, "colors": %s, "target_index": 3, '
    '"speaker_text": "blue"}' % _C,
    '{"game_id": "x", "round": 1, "colors": %s, "target_index": 0, '
    '"speaker_text": [1, 2]}' % _C,
    '{"game_id": "x", "round": 1, "colors": %s, "target_index": 0, '
    '"speaker_text": "   "}' % _C,
    '{"game_id": "x", "round": 1, "colors": %s, "target_index": 0, '
    '"speaker_text": "blue", "clicked_index": 5}' % _C,
)
# A blank line, which load_raw skips but still counts, sits at this line.
BLANK_LINE = 3


def malformed_lines(n_rows: int) -> list[int]:
    """1-based lines of the malformed rows in a file of n_rows good rows.

    They are spread evenly from the first line to the last, skipping the
    blank line; they depend on the size only, never on the seed.
    """
    total = n_rows + len(MALFORMED) + 1
    lines = []
    for k in range(len(MALFORMED)):
        line = 1 + round(k * (total - 1) / (len(MALFORMED) - 1))
        while line == BLANK_LINE or line in lines:
            line += 1
        lines.append(line)
    return lines


def _row_json(t) -> str:
    return json.dumps({
        "game_id": t.game_id, "round": t.round,
        "colors": [[c.r, c.g, c.b] for c in t.colors],
        "target_index": t.target_index,
        "condition": t.condition.value if t.condition else None,
        "speaker_text": t.speaker_texts, "clicked_index": t.clicked_index,
    })


def write_corpus(trials, path) -> list[int]:
    """Write trials as JSON-lines with MALFORMED and a blank line mixed in.

    Returns the line of each trial's row, in order.
    """
    bad = dict(zip(malformed_lines(len(trials)), MALFORMED))
    rows = iter(trials)
    good = []
    with open(path, "w", encoding="utf-8") as fh:
        for line in range(1, len(trials) + len(MALFORMED) + 2):
            if line == BLANK_LINE:
                fh.write("\n")
            elif line in bad:
                fh.write(bad[line] + "\n")
            else:
                fh.write(_row_json(next(rows)) + "\n")
                good.append(line)
    return good


class CorpusWorkload(Workload):
    """Template corpus: synthesize, write with malformed rows, ingest, score."""

    name = "corpus"
    STAGES = (("synth_trials_per_s", "trials/s"), ("ingest_rows_per_s", "rows/s"),
              ("oracle_trials_per_s", "trials/s"))
    # Per-colour arithmetic on tiny arrays and JSON parsing: interpreter-bound,
    # so the pure-Python loop alone tracks it best.
    PROBE_NUMPY_SHARE = 0.0

    def setup(self):
        self.path = self.workdir / f"corpus-{self.seed}.jsonl"
        self.bad_lines = malformed_lines(self.size["corpus_trials"])
        # First calls into every stage, on a corpus of its own.
        warm = corpus.synth_corpus(30, np.random.default_rng(0))
        write_corpus(warm, self.workdir / "warmup.jsonl")
        loaded = corpus.load_raw(self.workdir / "warmup.jsonl").trials
        corpus.template_bayes_accuracy(corpus.filter_trials(loaded).trials[:5])

    def check_setup(self):
        ref.check_ciede2000(colorspace.ciede2000_lab)

    def prepare(self, index):
        return {"rng": self.round_rng(index)}

    def _ingest(self):
        loaded = corpus.load_raw(self.path)
        kept = corpus.filter_trials(loaded.trials)
        spec = corpus.split_by_dyad(kept.trials, FRACTIONS, self.seed)
        splits = corpus.apply_split(kept.trials, spec)
        return {"loaded": loaded, "kept": kept, "spec": spec, "splits": splits,
                "vocab": _vocab(splits["train"], "listener")}

    def run(self, inputs, timed):
        n = self.size["corpus_trials"]
        trials = timed(corpus.synth_corpus, n, inputs["rng"])
        good_lines = write_corpus(trials, self.path)
        outputs = timed(self._ingest)
        dev = outputs["splits"]["dev"]
        outputs.update(trials=trials, good_lines=good_lines,
                       accuracy=timed(corpus.template_bayes_accuracy, dev))
        return Round([n, n + len(MALFORMED), len(dev)], outputs)

    def check(self, inputs, out, full):
        trials = out["trials"]
        th = colorspace.ConditionThresholds()
        # Labels follow the pairwise rule; no pair closer than epsilon.
        colors = np.array([[[c.r, c.g, c.b] for c in t.colors] for t in trials])
        labels, closest = ref.condition_labels(colors, colorspace.ciede2000_lab,
                                               th.theta_dist, th.epsilon)
        stored = np.array([t.condition.value for t in trials], dtype=object)
        require(np.array_equal(labels, stored), "a context label breaks the pairwise rule")
        require(np.all(closest >= th.epsilon), "a context has a pair closer than epsilon")
        counts = Counter(stored)
        require(len(counts) == 3 and max(counts.values()) - min(counts.values()) <= 1,
                f"condition counts {dict(counts)} differ by more than one")

        # Malformed rows must be rejected at their own lines, and every good
        # row must come back exactly as written.
        rejected = {r.line for r in out["loaded"].rejects}
        bad = set(self.bad_lines)
        failed = len(bad - rejected) + len(rejected - bad)
        expected = [t for line, t in zip(out["good_lines"], trials) if line not in rejected]
        returned = [t for t in out["loaded"].trials if t.game_id != MALFORMED_GAME]
        require(returned == expected, "the JSON-lines round trip changed a row")

        # filter_trials keeps exactly the trials whose messages fit the cutoff
        # of mean + 4 sd words per message.
        loaded = out["loaded"].trials
        words = np.array([len(m.split()) for t in loaded for m in t.speaker_texts])
        cutoff = words.mean() + 4.0 * words.std()
        fits = [t for t in loaded if all(len(m.split()) <= cutoff for m in t.speaker_texts)]
        require(out["kept"].trials == fits, "filter_trials kept the wrong trials")

        # Every game lands in exactly one split.
        games = {t.game_id for t in out["kept"].trials}
        require(set(out["spec"].assignment) == games
                and set(out["spec"].assignment.values()) <= set(corpus.SPLIT_NAMES),
                "split_by_dyad does not assign every game once")
        seen: dict[str, str] = {}
        for name, part in out["splits"].items():
            for t in part:
                require(seen.setdefault(t.game_id, name) == name,
                        f"game {t.game_id} appears in two splits")
        require(sum(len(p) for p in out["splits"].values()) == len(out["kept"].trials),
                "apply_split lost or duplicated trials")

        # The vocabulary keeps exactly the training tokens seen twice or more.
        tokens = Counter(tok for t in out["splits"]["train"]
                         for tok in corpus.preprocess(t.speaker_texts, "listener"))
        want = sorted(tok for tok, n in tokens.items() if n >= 2)
        require(out["vocab"].id_to_token == [corpus.UNK, corpus.BOS, corpus.EOS] + want,
                "build_vocab kept the wrong tokens")
        require(1 / 3 < out["accuracy"] <= 1, f"oracle accuracy {out['accuracy']:.3f}")

        if full:
            for t in trials:
                utterances, probs = corpus.template_emission(t.colors, t.target_index,
                                                             t.condition)
                said = tuple(t.speaker_texts[0].split())
                require(said in utterances and probs[utterances.index(said)] > 0,
                        f"description {said} has zero template likelihood")
        return failed


# -- train --------------------------------------------------------------------------


def zipf_extend(trials, rng, n_types: int, exponent: float, max_extra: int):
    """Prefix each description with 0..max_extra words from a Zipf vocabulary.

    Word w<k> has probability proportional to k^-exponent. The template words
    stay last, so the listener's final LSTM state still reads them.
    """
    p = np.arange(1, n_types + 1, dtype=np.float64) ** -exponent
    p /= p.sum()
    out = []
    for t in trials:
        extra = rng.choice(n_types, size=rng.integers(0, max_extra + 1), p=p)
        words = [f"w{k + 1}" for k in extra] + t.speaker_texts[0].split()
        out.append(dataclasses.replace(t, speaker_texts=[" ".join(words)]))
    return out


def _same_length_rows(seqs, limit):
    """Indices of up to `limit` sequences sharing the most common length."""
    lengths = np.array([len(s) for s in seqs])
    common = np.bincount(lengths).argmax()
    return np.flatnonzero(lengths == common)[:limit]


def _sample_coords(grad: np.ndarray, rng, k: int) -> np.ndarray:
    """k flat indices where the gradient is nonzero, plus k anywhere."""
    nonzero = np.flatnonzero(grad)
    picks = [rng.choice(grad.size, size=k, replace=False)]
    if nonzero.size:
        picks.append(rng.choice(nonzero, size=min(k, nonzero.size), replace=False))
    return np.unique(np.concatenate(picks))


# Central differences must agree with the analytic gradient to this share of
# the parameter's largest checked entry.
GRADIENT_TOLERANCE = 1e-3
COORDS_PER_PARAM = 6


def check_gradients(params, analytic_loss, reference_loss, rng) -> None:
    """Compare backward() of `analytic_loss` with central differences.

    `analytic_loss()` builds the loss graph through the model's public methods;
    `reference_loss()` returns the same loss as a float through the program's
    batched scoring path. Both must agree in value as well.
    """
    loss = analytic_loss()
    value = float(loss.data)
    require(abs(value - reference_loss()) <= 1e-9 * max(1.0, abs(value)),
            "the batched scorer disagrees with the graph's loss")
    loss.backward()
    grads = {p.name: p.grad.copy() for p in params}
    nnsubstrate.zero_gradients(params)
    worst = 0.0
    for p in params:
        coords = _sample_coords(grads[p.name], rng, COORDS_PER_PARAM)
        numeric = ref.central_differences(reference_loss, p.data, coords)
        worst = max(worst, ref.gradient_mismatch(grads[p.name].reshape(-1)[coords], numeric))
    require(worst <= GRADIENT_TOLERANCE, f"gradient mismatch {worst:.2e}")


class TrainWorkload(Workload):
    """train_l0 and train_s0 on a template corpus widened by Zipf words.

    The corpus is fixed; the seed draws the initial weights, the batch order
    and the coordinates of the gradient check.
    """

    name = "train"
    STAGES = (("l0_train_examples_per_s", "examples/s"),
              ("s0_train_tokens_per_s", "tokens/s"),
              ("score_rows_per_s", "rows/s"))

    def setup(self):
        s = self.size
        trials = corpus.synth_corpus(s["train_trials"], self.setup_rng("corpus", FIXED_SEED))
        trials = zipf_extend(trials, self.setup_rng("zipf", FIXED_SEED), s["zipf_types"],
                             s["zipf_exponent"], s["zipf_max_extra"])
        self.splits = _splits(trials, FIXED_SEED)
        train = self.splits["train"]
        self.listener_vocab = _vocab(train, "listener")
        self.speaker_vocab = _vocab(train, "speaker")
        # Tokens S0 is trained on per epoch, end tokens included.
        self.speaker_tokens = sum(len(corpus.preprocess(t.speaker_texts, "speaker")) + 1
                                  for t in train)
        # First BLAS calls and training steps, on a few trials.
        few = train[:8]
        listener.train_l0(self._listener(), few, few, TrainConfig(epochs=1))
        speaker.train_s0(self._speaker(), few, few, TrainConfig(epochs=1))

    def _listener(self):
        return listener.ListenerModel.create(self.listener_vocab, self.setup_rng("l0"),
                                             **self.size["dims"])

    def _speaker(self):
        return speaker.SpeakerModel.create(self.speaker_vocab, self.setup_rng("s0"),
                                           **self.size["dims"])

    def check_setup(self):
        rng = self.setup_rng("gradcheck")
        train = self.splits["train"]

        l0 = self._listener()
        seqs = [listener.trial_listener_ids(l0, t) for t in train]
        rows = _same_length_rows(seqs, 16)
        ids = np.array([seqs[i] for i in rows])
        feats = np.stack([listener.context_features(train[i].colors) for i in rows])
        targets = np.array([train[i].target_index for i in rows])

        def l0_graph():
            losses, _ = nnsubstrate.softmax_xent(l0.scores(ids, feats), targets)
            return losses.mean()

        def l0_reference():
            probs = listener.l0_probs_many(l0, [list(r) for r in ids], feats)
            return float(-np.log(probs[np.arange(len(rows)), targets]).mean())

        check_gradients(l0.parameters(), l0_graph, l0_reference, rng)

        s0 = self._speaker()
        seqs = [speaker.trial_speaker_ids(s0, t) for t in train]
        rows = _same_length_rows(seqs, 16)
        ids = np.array([seqs[i] for i in rows])
        feats = np.stack([speaker.reorder_target_last(train[i].colors, train[i].target_index)
                          for i in rows])

        def s0_graph():
            batch, steps = ids.shape
            ctx = s0.encode(feats)
            h = nnsubstrate.Tensor(np.zeros((batch, s0.hidden_dim)))
            c = nnsubstrate.Tensor(np.zeros((batch, s0.hidden_dim)))
            prev = np.full(batch, s0.vocab.bos_id)
            total = None
            for step in range(steps):
                logits, h, c = s0.step_logits(ctx, prev, h, c)
                losses, _ = nnsubstrate.softmax_xent(logits, ids[:, step])
                total = losses if total is None else total + losses
                prev = ids[:, step]
            return total.sum() * (1.0 / ids.size)

        def s0_reference():
            log_probs = speaker.s0_log_probs_batch(s0, [list(r) for r in ids], feats)
            return float(-log_probs.sum() / ids.size)

        check_gradients(s0.parameters(), s0_graph, s0_reference, rng)

    def prepare(self, index):
        return {}

    def _score(self, l0, s0):
        """Both trained models scored on every split, as a final report does."""
        return {name: (listener.evaluate_l0(l0, part), speaker.dev_token_perplexity(s0, part))
                for name, part in self.splits.items()}

    def run(self, inputs, timed):
        train, dev = self.splits["train"], self.splits["dev"]
        l0, s0 = self._listener(), self._speaker()
        l0_config = TrainConfig(seed=self.seed)
        l0_report = timed(listener.train_l0, l0, train, dev, l0_config)
        s0_report = timed(speaker.train_s0, s0, train, dev,
                          TrainConfig(epochs=S0_EPOCHS, seed=self.seed))
        scores = timed(self._score, l0, s0)
        outputs = {"l0": l0, "s0": s0, "l0_report": l0_report, "s0_report": s0_report,
                   "scores": scores}
        rows = sum(len(part) for part in self.splits.values())
        return Round([l0_config.epochs * len(train), S0_EPOCHS * self.speaker_tokens,
                      2 * rows], outputs)

    def check(self, inputs, out, full):
        for name in ("l0_report", "s0_report"):
            losses = [e.train_loss for e in out[name].epochs]
            require(np.all(np.isfinite(losses)), f"{name}: non-finite training loss")
            require(losses[-1] < losses[0], f"{name}: loss did not fall: {losses}")
        best_l0 = out["l0_report"].best()
        require(best_l0.dev_accuracy > 1 / 3,
                f"L0 dev accuracy {best_l0.dev_accuracy:.3f} is not above chance")
        best_s0 = out["s0_report"].best()
        require(best_s0.dev_perplexity < len(self.speaker_vocab),
                f"S0 dev perplexity {best_s0.dev_perplexity:.1f} >= vocabulary size")

        # Scores on every split, recomputed from the batched scorers in numpy.
        l0, s0 = out["l0"], out["s0"]
        for name, part in self.splits.items():
            l0_score, s0_perplexity = out["scores"][name]
            targets = np.array([t.target_index for t in part])
            probs = listener.l0_probs_many(
                l0, [listener.trial_listener_ids(l0, t) for t in part],
                np.stack([listener.context_features(t.colors) for t in part]))
            accuracy = float(np.mean(probs.argmax(axis=1) == targets))
            perplexity = float(np.exp(-np.log(probs[np.arange(len(part)), targets]).mean()))
            require(np.allclose(l0_score, (accuracy, perplexity), rtol=1e-9, atol=0),
                    f"evaluate_l0 on {name}: {l0_score} != {(accuracy, perplexity)}")
            seqs = [speaker.trial_speaker_ids(s0, t) for t in part]
            log_probs = speaker.s0_log_probs_batch(
                s0, seqs, np.stack([speaker.reorder_target_last(t.colors, t.target_index)
                                    for t in part]))
            perplexity = float(np.exp(-log_probs.sum() / sum(len(q) for q in seqs)))
            require(abs(s0_perplexity - perplexity) <= 1e-9 * perplexity,
                    f"dev_token_perplexity on {name}: {s0_perplexity} != {perplexity}")
        return 0


# -- pragmatics ----------------------------------------------------------------------

# A fixed context and utterance for the colour-permutation query on L1.
PERMUTED_CONTEXT = ((0.85, 0.20, 0.15), (0.20, 0.35, 0.80), (0.25, 0.70, 0.30))
PERMUTED_UTTERANCE = "blue"
PERMUTATIONS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
AGENT_TOLERANCE = 1e-9


class PragmaticsWorkload(Workload):
    """compute_agents on dev trials, then the S0 and S1 samplers."""

    name = "pragmatics"
    STAGES = (("agents_trials_per_s", "trials/s"),
              ("s0_sample_contexts_per_s", "contexts/s"),
              ("s1_sample_contexts_per_s", "contexts/s"))
    # The colour-permutation query on L1 with the fixed context.
    EXTRA_OPS = 1

    def setup(self):
        s = self.size
        rng = np.random.default_rng(FIXED_SEED)
        trials = corpus.synth_corpus(s["model_trials"], rng)
        splits = _splits(trials, FIXED_SEED)
        train, dev = splits["train"], splits["dev"]
        self.l0 = listener.ListenerModel.create(_vocab(train, "listener"), rng, **s["dims"])
        self.s0 = speaker.SpeakerModel.create(_vocab(train, "speaker"), rng, **s["dims"])
        config = TrainConfig(epochs=s["model_epochs"], seed=FIXED_SEED)
        listener.train_l0(self.l0, train, dev, config)
        speaker.train_s0(self.s0, train, dev, config)
        self.config = rsa.PragmaticsConfig()
        # First calls into each stage, and the lazy depth-table load.
        warm = dev[:1]
        rsa.compute_agents(self.l0, self.s0, warm[0].combined_text(), warm[0].colors,
                           self.config, rng)
        contexts = [(t.colors, t.target_index, t.condition) for t in dev[:3]]
        metrics.BaseSpeakerSampler(self.s0).sample_texts(contexts, rng)
        metrics.PragmaticSpeakerSampler(self.l0, self.s0).sample_texts(contexts, rng)
        metrics.behavior_metrics([("dark blue", c) for _, _, c in contexts])

    def prepare(self, index):
        s = self.size
        rng = self.round_rng(index)
        return {
            "trials": corpus.synth_corpus(s["agent_trials"], rng),
            "s0_contexts": metrics.condition_mix_contexts(s["s0_per_condition"], rng),
            "s1_contexts": metrics.condition_mix_contexts(s["s1_per_condition"], rng),
            "rngs": [self.round_rng(index, k) for k in range(3)],
        }

    def _agents(self, trials, rng):
        rows = [rsa.compute_agents(self.l0, self.s0, t.combined_text(), t.colors,
                                   self.config, rng) for t in trials]
        agents = {name: np.stack([r[name] for r in rows]) for name in rows[0]}
        return agents, {name: metrics.evaluate_probs(p, trials) for name, p in agents.items()}

    @staticmethod
    def _sample(sampler, contexts, rng):
        texts = sampler.sample_texts(contexts, rng)
        return texts, metrics.behavior_metrics(
            [(text, cond) for text, (_, _, cond) in zip(texts, contexts)])

    def run(self, inputs, timed):
        trials = inputs["trials"]
        agents_rng, s0_rng, s1_rng = inputs["rngs"]
        agents, reports = timed(self._agents, trials, agents_rng)
        outputs = {"agents": agents, "reports": reports}
        for key, sampler, rng in (
                ("s0", metrics.BaseSpeakerSampler(self.s0), s0_rng),
                ("s1", metrics.PragmaticSpeakerSampler(self.l0, self.s0), s1_rng)):
            outputs[key] = timed(self._sample, sampler, inputs[f"{key}_contexts"], rng)
        return Round([len(trials), len(inputs["s0_contexts"]), len(inputs["s1_contexts"])],
                     outputs)

    def _l1_permutation_fails(self) -> int:
        colors = tuple(colorspace.Color(*c) for c in PERMUTED_CONTEXT)
        l1 = rsa.neural_l1(self.s0, PERMUTED_UTTERANCE, colors)
        for perm in PERMUTATIONS:
            moved = rsa.neural_l1(self.s0, PERMUTED_UTTERANCE,
                                  tuple(colors[i] for i in perm))
            if np.max(np.abs(moved - l1[list(perm)])) > AGENT_TOLERANCE:
                return 1
        return 0

    def check(self, inputs, out, full):
        trials = inputs["trials"]
        agents = out["agents"]
        cfg = self.config
        for name, probs in agents.items():
            require(np.all(np.isfinite(probs)) and np.all(probs >= 0),
                    f"{name}: a row is not finite and non-negative")
            require(np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=AGENT_TOLERANCE),
                    f"{name}: a row does not sum to 1")
        for i in range(len(trials)):
            la = ref.geometric_blend(agents["l0"][i], agents["l1"][i], cfg.beta_a)
            lb = ref.geometric_blend(agents["l0"][i], agents["l2"][i], cfg.beta_b)
            le = ref.geometric_blend(la, lb, cfg.gamma)
            for name, want in (("la", la), ("lb", lb), ("le", le)):
                require(np.allclose(agents[name][i], want, rtol=0, atol=AGENT_TOLERANCE),
                        f"{name} of trial {i} is not the geometric blend")

        targets = np.array([t.target_index for t in trials])
        conditions = np.array([t.condition.value for t in trials])
        for name, report in out["reports"].items():
            hits = agents[name].argmax(axis=1) == targets
            require(abs(report.accuracy - hits.mean()) <= 1e-12
                    and report.n_trials == len(trials), f"evaluate_probs({name}) accuracy")
            for cond, stats in report.per_condition.items():
                require(stats.n == int(np.sum(conditions == cond)),
                        f"evaluate_probs({name}) counts {cond} wrongly")

        for key in ("s0", "s1"):
            texts, behavior = out[key]
            contexts = inputs[f"{key}_contexts"]
            require(len(texts) == len(contexts), f"{key} sampler lost contexts")
            want = Counter(cond.value for _, _, cond in contexts)
            got = {cond: b.n for cond, b in behavior.per_condition.items()}
            require(got == dict(want), f"{key} behaviour counts {got} != {dict(want)}")

        if full:
            for i, t in enumerate(trials):
                text = t.combined_text()
                l0 = listener.l0_score(self.l0, corpus.preprocess(text, "listener"), t.colors)
                require(np.allclose(agents["l0"][i], l0, rtol=0, atol=AGENT_TOLERANCE),
                        f"L0 of trial {i} differs from l0_score")
                tokens = corpus.preprocess(text, "speaker") + [corpus.EOS]
                lp = np.array([speaker.s0_log_prob(self.s0, tokens, t.colors, k)
                               for k in range(3)])
                l1 = np.exp(lp - lp.max())
                require(np.allclose(agents["l1"][i], l1 / l1.sum(), rtol=0,
                                    atol=AGENT_TOLERANCE),
                        f"L1 of trial {i} is not the normalized s0_log_prob")
                for perm in PERMUTATIONS:
                    moved = listener.l0_score(self.l0, corpus.preprocess(text, "listener"),
                                              tuple(t.colors[k] for k in perm))
                    require(np.allclose(moved, l0[list(perm)], rtol=0, atol=AGENT_TOLERANCE),
                            f"L0 of trial {i} does not follow permutation {perm}")
        return self._l1_permutation_fails()


WORKLOADS = {w.name: w for w in (CorpusWorkload, TrainWorkload, PragmaticsWorkload)}
