// TxIR basic blocks and functions.
#pragma once

#include <deque>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "ir/decode.hpp"
#include "ir/instr.hpp"

namespace st::ir {

class Function;

class BasicBlock {
 public:
  BasicBlock(Function* parent, std::string name, unsigned id)
      : parent_(parent), name_(std::move(name)), id_(id) {}

  Function* parent() const { return parent_; }
  const std::string& name() const { return name_; }
  unsigned id() const { return id_; }

  /// Instructions are stored in a list so that instrumentation passes can
  /// insert in the middle without invalidating Instr* held by analyses.
  std::list<Instr>& instrs() { return instrs_; }
  const std::list<Instr>& instrs() const { return instrs_; }

  const Instr& terminator() const;
  bool has_terminator() const;

  /// Successor blocks from the terminator (0, 1 or 2).
  std::vector<BasicBlock*> successors() const;

 private:
  Function* parent_;
  std::string name_;
  unsigned id_;
  std::list<Instr> instrs_;
};

class Function {
 public:
  /// `param_pointees[i]` is non-null when parameter i is a pointer to that
  /// struct type (this is the signature information DSA consumes).
  Function(std::string name, unsigned id,
           std::vector<const StructType*> param_pointees);

  const std::string& name() const { return name_; }
  unsigned id() const { return id_; }
  unsigned num_params() const {
    return static_cast<unsigned>(param_pointees_.size());
  }
  const StructType* param_pointee(unsigned i) const {
    return param_pointees_[i];
  }

  BasicBlock* add_block(std::string name);
  BasicBlock* entry() { return blocks_.empty() ? nullptr : blocks_.front().get(); }
  const BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }

  std::deque<std::unique_ptr<BasicBlock>>& blocks() { return blocks_; }
  const std::deque<std::unique_ptr<BasicBlock>>& blocks() const {
    return blocks_;
  }

  Reg fresh_reg();
  unsigned num_regs() const { return next_reg_; }
  /// Parameter i occupies register i.
  Reg param_reg(unsigned i) const;

  /// Blocks in reverse post-order from the entry (unreachable blocks are
  /// excluded). Cached; invalidated by add_block.
  const std::vector<BasicBlock*>& rpo() const;

  unsigned instr_count() const;

  /// Pre-decoded flat code (see ir/decode.hpp). Module::finalize decodes
  /// every function once, after instrumentation and PC assignment, so the
  /// result is immutable and shared by every interpreter without locking.
  /// Checks that the owning module has been finalized.
  const DecodedCode& decoded() const;

 private:
  std::string name_;
  unsigned id_;
  std::vector<const StructType*> param_pointees_;
  std::deque<std::unique_ptr<BasicBlock>> blocks_;
  unsigned next_reg_;
  mutable std::vector<BasicBlock*> rpo_cache_;
  mutable bool rpo_valid_ = false;
  // Set once by Module::finalize; no block may be added afterwards.
  std::unique_ptr<const DecodedCode> decoded_;

  friend class Module;
};

}  // namespace st::ir
