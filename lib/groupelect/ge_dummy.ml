let gen () = { Ge.elect = (fun _ -> true) }

let create () : Ge.t = gen ()
