type 'ctx gen = {
  elect : 'ctx -> bool;
}

type t = Sim.Ctx.t gen
