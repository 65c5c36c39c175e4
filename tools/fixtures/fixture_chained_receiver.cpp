// Fixture for analyze.py --self-test: member calls through a chain of
// receivers.
//
// Recorder::query reserves lanes through `fresh.lanes.reserve(...)`: its
// receiver `lanes` is a std::vector member of the local Timeline, so the
// call is a std container's and binds to no repo method. Before chains
// were followed, the bare name bound it to every repo `reserve`, and
// Pool::reserve's growth showed up as hot. Recorder::grow's
// `holder.arena.reserve(4)` goes through repo members to Arena::reserve,
// and to that one alone.

struct Lane {
  int worker = 0;
};

struct Timeline {
  std::vector<Lane> lanes;
};

class Arena {
 public:
  void reserve(int n) { slots_.resize(n); }

 private:
  std::vector<int> slots_;
};

class Pool {
 public:
  void reserve(int n) { blocks_.resize(n); }

 private:
  std::vector<long> blocks_;
};

struct Holder {
  Arena arena;
};

class Recorder {
 public:
  // analyze:hot
  Timeline query(int workers) {
    Timeline fresh;
    fresh.lanes.reserve(workers);
    return fresh;
  }

  // analyze:hot
  void grow(Holder& holder) { holder.arena.reserve(4); }
};
