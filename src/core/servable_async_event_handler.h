// ServableAsyncEventHandler (SAEH) — paper §3.
//
// "This class does not extend AsyncEventHandler, nor implement Schedulable.
// It embodies the code which can be associated with an SAE. It can be bound
// with one or many SAE but associated with a unique TaskServer, and when one
// of the events it is bound with is released, it is added to the
// pending-events list of this server."
//
// The handler's logic executes *inside the server's thread*, under a Timed
// section; the declared cost is what the server's chooseNextEvent() checks
// against its remaining capacity.
#pragma once

#include <functional>
#include <string>

#include "rtsj/interruptible.h"
#include "rtsj/time.h"

namespace tsf::core {

class TaskServer;

class ServableAsyncEventHandler {
 public:
  // The handler body; call timed.work(...) for its CPU demand.
  using Logic = std::function<void(rtsj::Timed&)>;

  ServableAsyncEventHandler(std::string name, rtsj::RelativeTime declared_cost,
                            Logic logic)
      : name_(std::move(name)),
        declared_cost_(declared_cost),
        logic_(std::move(logic)) {}

  // Convenience: a handler whose body is a pure computation of `actual`
  // service time (the paper's scenario 3 uses actual > declared).
  static ServableAsyncEventHandler pure_work(std::string name,
                                             rtsj::RelativeTime declared_cost,
                                             rtsj::RelativeTime actual_cost) {
    return ServableAsyncEventHandler(
        std::move(name), declared_cost,
        [actual_cost](rtsj::Timed& timed) { timed.work(actual_cost); });
  }

  const std::string& name() const { return name_; }
  // Declared worst-case cost (the admission currency).
  rtsj::RelativeTime cost() const { return declared_cost_; }
  void set_cost(rtsj::RelativeTime c) { declared_cost_ = c; }

  // Scheduling value, already resolved by the owner (a zero spec value
  // means "the declared cost"): the currency of D-over, the steal order and
  // the shedding governor's value density.
  double value() const { return value_; }
  void set_value(double v) { value_ = v; }
  // Firm deadline relative to release; zero = soft (never shed).
  rtsj::RelativeTime relative_deadline() const { return relative_deadline_; }
  void set_relative_deadline(rtsj::RelativeTime d) { relative_deadline_ = d; }

  // Unique server association (paper: "associated with a unique TaskServer").
  void set_server(TaskServer* server) { server_ = server; }
  TaskServer* server() const { return server_; }

  void run_logic(rtsj::Timed& timed) { logic_(timed); }

 private:
  std::string name_;
  rtsj::RelativeTime declared_cost_;
  Logic logic_;
  double value_ = 0.0;
  rtsj::RelativeTime relative_deadline_ = rtsj::RelativeTime::zero();
  TaskServer* server_ = nullptr;
};

}  // namespace tsf::core
