// TxIR module: owns types and functions, assigns program counters.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.hpp"

namespace st::ir {

class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Interns a struct/array type; the module owns it.
  const StructType* add_type(StructType t);
  const StructType* find_type(std::string_view name) const;

  Function* add_function(std::string name,
                         std::vector<const StructType*> param_pointees);
  Function* find_function(std::string_view name) const;

  const std::deque<std::unique_ptr<Function>>& functions() const {
    return functions_;
  }

  /// Marks a function as the body of a source-level atomic block. Atomic
  /// block ids are dense from 0 in registration order.
  unsigned add_atomic_block(Function* f);
  const std::vector<Function*>& atomic_blocks() const { return atomic_blocks_; }

  /// Assigns a unique PC to every instruction (the "binary layout") and
  /// decodes every function (Function::decoded). Must run after
  /// instrumentation and before anchor-table emission/execution.
  void finalize();
  bool finalized() const { return finalized_; }

  /// PC -> instruction, valid after finalize().
  const Instr* instr_at(std::uint32_t pc) const;
  std::uint32_t max_pc() const { return next_pc_; }

 private:
  std::deque<std::unique_ptr<StructType>> types_;
  std::deque<std::unique_ptr<Function>> functions_;
  std::vector<Function*> atomic_blocks_;
  std::unordered_map<std::uint32_t, const Instr*> pc_map_;
  std::uint32_t next_pc_ = 0;
  bool finalized_ = false;
};

}  // namespace st::ir
