"""Stateful property test of the ledger.

Random posts, consent changes, credits and profile round trips for a few
keys, checked after every step against a plain-dict model of consent and
balances. Generalises acceptance criteria 8 (replay and conservation) and
9 (portable profiles).
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from echofeed.errors import UnregisteredUserError
from echofeed.ledger import (
    GENESIS_AUTHOR,
    Keypair,
    PayloadType,
    UserAccount,
    accounts,
    append_event,
    credit_tokens,
    export_profile,
    import_profile,
    load_profile,
    new_ledger,
    save_profile,
    set_consent,
    verify_chain,
)

KEYS = [Keypair(bytes([n]) * 32) for n in (1, 2, 3)]
users = st.sampled_from(range(len(KEYS)))


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ledger = new_ledger(timestamp=0)
        # the genesis author is asked about too: it never consents or earns
        self.model = {key: [False, 0] for key in [GENESIS_AUTHOR] + [kp.public_key for kp in KEYS]}
        self.authors = set()
        self.minted = 0
        self.tmp = tempfile.TemporaryDirectory()

    def teardown(self):
        self.tmp.cleanup()

    def _now(self) -> int:
        return len(self.ledger)

    @rule(user=users, payload=st.binary(max_size=16))
    def post(self, user, payload):
        append_event(self.ledger, KEYS[user], PayloadType.POST, payload, self._now())
        self.authors.add(KEYS[user].public_key)

    @rule(user=users, flag=st.booleans())
    def consent(self, user, flag):
        set_consent(self.ledger, KEYS[user], flag, self._now())
        self.authors.add(KEYS[user].public_key)
        self.model[KEYS[user].public_key][0] = flag

    @rule(user=users, amount=st.integers(0, 2**64 - 1))
    def credit(self, user, amount):
        credit_tokens(self.ledger, KEYS[user], amount, self._now())
        self.authors.add(KEYS[user].public_key)
        self.model[KEYS[user].public_key][1] += amount
        self.minted += amount

    @rule(user=users)
    def export_import(self, user):
        key = KEYS[user].public_key
        if key not in self.authors:
            with pytest.raises(UnregisteredUserError):
                export_profile(self.ledger, key)
            return
        # a fresh name each time: replacing an existing file can wait on a flush
        path = Path(self.tmp.name) / f"profile-{self._now()}-{user}.json"
        save_profile(export_profile(self.ledger, key), path)
        assert import_profile(load_profile(path)) == UserAccount(key, *self.model[key])

    @invariant()
    def replay_matches_model(self):
        state = accounts(self.ledger, self.model)
        assert state == {key: UserAccount(key, *entry) for key, entry in self.model.items()}
        assert sum(account.token_balance for account in state.values()) == self.minted

    @invariant()
    def profiles_match_replay(self):
        state = accounts(self.ledger, self.authors)
        for key in self.authors:
            assert import_profile(export_profile(self.ledger, key)) == state[key]

    @invariant()
    def chain_verifies(self):
        assert verify_chain(self.ledger).valid


LedgerMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
test_ledger_machine = LedgerMachine.TestCase
