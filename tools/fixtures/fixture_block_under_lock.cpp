// Fixture for analyze.py --self-test: the block-under-lock and
// unbounded-wait passes.
//
// direct_block recv()s while holding m_ (direct finding); outer_block
// reaches a blocking send() through helper() (interprocedural finding);
// good_wait is the sanctioned cv.wait(m) loop holding only m (exempt);
// deferred_ok only *captures* a blocking call in a closure while locked
// (exempt — the closure runs later, outside the critical section).
// serve_forever's unbounded recv() fires the protocol-scope discipline
// rule enabled by the marker below.
//
// analyze:protocol-scope

struct Proto {
  Mutex m_;
  CondVar cv_;
  Channel* ch_ = nullptr;
  bool ready_ = false;

  std::string direct_block() {
    MutexLock lock(m_);
    return ch_->recv();
  }

  void helper() { ch_->send(""); }

  void outer_block() {
    MutexLock lock(m_);
    helper();
  }

  void good_wait() {
    MutexLock lock(m_);
    while (!ready_) {
      cv_.wait(m_);
    }
  }

  void deferred_ok(std::vector<std::function<void()>>& out) {
    MutexLock lock(m_);
    out.push_back([this] { ch_->send(""); });
  }

  std::string serve_forever() { return ch_->recv(); }
};
