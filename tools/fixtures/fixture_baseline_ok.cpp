// Fixture for analyze.py --self-test: baseline suppression and
// fingerprint stability.
//
// Both findings below are fingerprinted in fixture_baseline.json, so the
// self-test must see zero NEW findings and zero stale entries. Because
// the baked fingerprints are sha256(rule|subject) prefixes, this fixture
// doubles as the fingerprint-stability gate: any change to the subject
// scheme or hashing shows up here as both a new and a stale entry.
//
// analyze:protocol-scope

struct Cache {
  Mutex m_;
  Channel* ch_ = nullptr;

  void flush_under_lock() {
    MutexLock lock(m_);
    std::fprintf(stderr, "flush\n");
  }

  std::string serve() { return ch_->recv(); }
};
