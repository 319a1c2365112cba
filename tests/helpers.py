"""Small builders shared across test modules."""

from deskdpr.corpus import Passage, PassageStore
from deskdpr.dataset import TrainingInstance, align_questions
from deskdpr.questions import Question


def passage(text: str, pid: str = "d0#0", title: str = "title") -> Passage:
    doc_id, chunk_index = Passage.split_id(pid)
    return Passage(passage_id=pid, doc_id=doc_id, title=title, text=text, chunk_index=chunk_index)


def store_of(*texts: str, titles=None, chunk_size: int = 100) -> PassageStore:
    passages = [
        Passage(
            passage_id=f"d{i}#0",
            doc_id=f"d{i}",
            title=titles[i] if titles else f"title {i}",
            text=text,
            chunk_index=0,
        )
        for i, text in enumerate(texts)
    ]
    return PassageStore(passages, chunk_size=chunk_size)


def factoid(qid: str, text: str, answers, snippets=()) -> Question:
    return Question(
        question_id=qid,
        text=text,
        qtype="factoid",
        answers=tuple(answers),
        gold_snippets=tuple(snippets),
    )


def yesno(qid: str, text: str, answer: str = "yes", snippets=()) -> Question:
    return Question(
        question_id=qid,
        text=text,
        qtype="yesno",
        answers=(answer,),
        gold_snippets=tuple(snippets),
    )


def aligned_positive(question: Question, store: PassageStore) -> Passage | None:
    """The positive ``align_questions`` gives one question, or None when it drops it."""
    instances, _ = align_questions([question], store)
    return instances[0].positive if instances else None


def instance(question: Question, positive: Passage, hard=()) -> TrainingInstance:
    return TrainingInstance(question=question, positive=positive, hard_negatives=tuple(hard))


def random_text(rng, n_words: int, vocab_size: int = 30, prefix: str = "tok") -> str:
    return " ".join(f"{prefix}{rng.randrange(vocab_size)}" for _ in range(n_words))


def snapshot_dir(root) -> dict:
    """Every file under root, by path, with its bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
