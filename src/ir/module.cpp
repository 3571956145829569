#include "ir/module.hpp"

#include "common/check.hpp"

namespace st::ir {

const StructType* Module::add_type(StructType t) {
  ST_CHECK_MSG(find_type(t.name) == nullptr, "duplicate type name");
  types_.push_back(std::make_unique<StructType>(std::move(t)));
  return types_.back().get();
}

const StructType* Module::find_type(std::string_view name) const {
  for (const auto& t : types_)
    if (t->name == name) return t.get();
  return nullptr;
}

Function* Module::add_function(std::string name,
                               std::vector<const StructType*> param_pointees) {
  ST_CHECK_MSG(find_function(name) == nullptr, "duplicate function name");
  functions_.push_back(std::make_unique<Function>(
      std::move(name), static_cast<unsigned>(functions_.size()),
      std::move(param_pointees)));
  return functions_.back().get();
}

Function* Module::find_function(std::string_view name) const {
  for (const auto& f : functions_)
    if (f->name() == name) return f.get();
  return nullptr;
}

unsigned Module::add_atomic_block(Function* f) {
  ST_CHECK(f != nullptr);
  atomic_blocks_.push_back(f);
  return static_cast<unsigned>(atomic_blocks_.size() - 1);
}

void Module::finalize() {
  ST_CHECK_MSG(!finalized_, "module already finalized");
  // PC 0 is reserved (it reads as "no PC" in abort info).
  next_pc_ = 1;
  pc_map_.clear();
  for (auto& f : functions_) {
    for (auto& b : f->blocks()) {
      for (auto& ins : b->instrs()) {
        ins.pc = next_pc_++;
        pc_map_.emplace(ins.pc, &ins);
      }
    }
    // Instrumentation and PC assignment are done: decode once, here, so
    // execution only ever reads immutable code (no lazy fill to race on).
    f->decoded_ = std::make_unique<const DecodedCode>(decode_function(*f));
  }
  finalized_ = true;
}

const Instr* Module::instr_at(std::uint32_t pc) const {
  auto it = pc_map_.find(pc);
  return it == pc_map_.end() ? nullptr : it->second;
}

}  // namespace st::ir
